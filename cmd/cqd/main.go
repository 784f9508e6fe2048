// Command cqd is the continuous-query daemon: it builds a sensorcq.System
// and serves it over HTTP — a JSON control plane (register/list/retract
// subscriptions, ingest readings, metrics, health) and an SSE data plane
// streaming each subscription's complex events. See internal/server for the
// endpoint reference.
//
// Usage:
//
//	cqd -demo                                # six-node walkthrough network
//	cqd -nodes 60 -sensors 50 -groups 10     # generated SensorScope-like net
//	cqd -approach centralized -concurrent -workers 2
//	cqd -addr 127.0.0.1:8080 -drain-timeout 10s
//
// Register, ingest and stream with curl:
//
//	curl -X POST localhost:7007/subscriptions -d '{"id":"mild-and-dry","delta_t":30,
//	     "sensors":[{"sensor":"a","min":50,"max":80},{"sensor":"b","min":10,"max":30}]}'
//	curl -N localhost:7007/subscriptions/mild-and-dry/stream &
//	curl -X POST localhost:7007/events -d '{"sensor":"a","value":62,"time":100}'
//
// On SIGINT/SIGTERM the daemon drains: new mutations get 503, in-flight
// rounds finish propagating, every stream receives an "event: end" frame,
// and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sensorcq"
	"sensorcq/internal/engineflags"
	"sensorcq/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7007", "listen address of both HTTP planes")
		approach     = flag.String("approach", string(sensorcq.FilterSplitForward), "query-processing approach")
		eng          = engineflags.Register(flag.CommandLine)
		demo         = flag.Bool("demo", false, "serve the six-node walkthrough network (sensors a, b, c) instead of a generated deployment")
		nodes        = flag.Int("nodes", 60, "total processing nodes of the generated deployment")
		sensors      = flag.Int("sensors", 50, "sensor nodes of the generated deployment")
		groups       = flag.Int("groups", 10, "sensor groups of the generated deployment")
		seed         = flag.Int64("seed", 1, "deployment and set-filter seed")
		node         = flag.Int("node", 0, "default registration node for subscription specs without one")
		drainTimeout = flag.Duration("drain-timeout", server.DefaultDrainTimeout, "bound on the shutdown drain")
	)
	flag.Parse()
	if err := eng.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	// POST /events ingests every body as one quiescent round; no replay
	// reaches the daemon, so another mode would only enlarge event windows.
	// Validate already refuses -lag without -delivery windowed.
	if eng.Delivery != sensorcq.Quiescent {
		fmt.Fprintf(os.Stderr, "invalid -delivery %s: cqd ingests every POST /events as one quiescent round, so neither another delivery mode nor -lag applies\n", eng.Delivery)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*addr, *approach, eng, *demo, *nodes, *sensors, *groups, *seed, *node, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(addr, approach string, eng *engineflags.Flags, demo bool, nodes, sensors, groups int, seed int64, defaultNode int, drainTimeout time.Duration) error {
	dep, err := buildDeployment(demo, nodes, sensors, groups, seed)
	if err != nil {
		return err
	}
	sys, err := sensorcq.NewSystem(dep, sensorcq.Config{
		Approach:   sensorcq.Approach(approach),
		Seed:       seed,
		Concurrent: eng.Concurrent,
		Workers:    eng.Workers,
	})
	if err != nil {
		return err
	}

	srv, err := server.New(sys, server.Config{
		DefaultNode:  sensorcq.NodeID(defaultNode),
		DrainTimeout: drainTimeout,
	})
	if err != nil {
		sys.Close()
		return err
	}

	httpSrv := srv.HTTPServer(addr)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("cqd: serving %s on http://%s (%d nodes, %d sensors)",
			sys.Approach(), addr, dep.Graph.NumNodes(), len(dep.Sensors))
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		sys.Close()
		return err
	case <-ctx.Done():
	}

	log.Printf("cqd: draining (bound %s)", drainTimeout)
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Printf("cqd: drain aborted: %v", err)
	}
	sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sdCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("cqd: shut down cleanly")
	return nil
}

// buildDeployment returns either the examples' six-node walkthrough network
// (known sensors a, b, c — handy for smoke tests) or a generated
// SensorScope-like deployment.
func buildDeployment(demo bool, nodes, sensors, groups int, seed int64) (*sensorcq.Deployment, error) {
	if demo {
		return sensorcq.NewTopology(6).
			Link(5, 4).Link(4, 3).Link(3, 0).Link(3, 1).Link(4, 2).
			PlaceSensor(0, sensorcq.Sensor{ID: "a", Attr: sensorcq.AmbientTemperature}).
			PlaceSensor(1, sensorcq.Sensor{ID: "b", Attr: sensorcq.RelativeHumidity}).
			PlaceSensor(2, sensorcq.Sensor{ID: "c", Attr: sensorcq.WindSpeed}).
			Build()
	}
	return sensorcq.GenerateDeployment(sensorcq.DeploymentConfig{
		TotalNodes:  nodes,
		SensorNodes: sensors,
		Groups:      groups,
		Attributes:  sensorcq.DefaultAttributes(),
		Seed:        seed,
	})
}
