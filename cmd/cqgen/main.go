// Command cqgen generates and dumps the synthetic inputs of an experiment —
// the deployment (nodes, links, sensors), the measurement trace and the
// subscription workload — as CSV on stdout or into files. It exists so that
// the exact inputs replayed by the benchmarks can be inspected or fed into
// external tools.
//
// Usage:
//
//	cqgen -what trace -rounds 20 > trace.csv
//	cqgen -what topology -nodes 100 -sensors 50 -groups 10 > topology.csv
//	cqgen -what workload -subs 300 > subs.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sensorcq"
)

func main() {
	var (
		what     = flag.String("what", "trace", "what to dump: topology, trace or workload")
		nodes    = flag.Int("nodes", 60, "total processing nodes")
		sensors  = flag.Int("sensors", 50, "sensor nodes")
		groups   = flag.Int("groups", 10, "sensor groups")
		rounds   = flag.Int("rounds", 20, "measurement rounds")
		subs     = flag.Int("subs", 200, "number of subscriptions")
		minAttrs = flag.Int("min-attrs", 3, "minimum attributes per subscription")
		maxAttrs = flag.Int("max-attrs", 5, "maximum attributes per subscription")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := run(w, *what, *nodes, *sensors, *groups, *rounds, *subs, *minAttrs, *maxAttrs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer, what string, nodes, sensors, groups, rounds, subs, minAttrs, maxAttrs int, seed int64) error {
	dep, err := sensorcq.GenerateDeployment(sensorcq.DeploymentConfig{
		TotalNodes:  nodes,
		SensorNodes: sensors,
		Groups:      groups,
		Attributes:  sensorcq.DefaultAttributes(),
		Seed:        seed,
	})
	if err != nil {
		return err
	}
	switch what {
	case "topology":
		return dumpTopology(w, dep)
	case "trace":
		streamer, err := sensorcq.NewTraceStreamer(dep, sensorcq.TraceConfig{Rounds: rounds, Seed: seed + 1})
		if err != nil {
			return err
		}
		return dumpTrace(w, streamer)
	case "workload":
		// The workload generator only needs the trace's summary statistics,
		// so stream the rounds through without retaining any of them.
		streamer, err := sensorcq.NewTraceStreamer(dep, sensorcq.TraceConfig{Rounds: rounds, Seed: seed + 1})
		if err != nil {
			return err
		}
		for streamer.NextRound() != nil {
		}
		stream, err := sensorcq.NewWorkloadStream(dep, streamer.Stats(), streamer.RoundInterval(), sensorcq.WorkloadConfig{
			Count: subs, MinAttrs: minAttrs, MaxAttrs: maxAttrs, Seed: seed + 2,
		})
		if err != nil {
			return err
		}
		return dumpWorkload(w, stream)
	default:
		return fmt.Errorf("unknown -what %q (want topology, trace or workload)", what)
	}
}

func dumpTopology(w io.Writer, dep *sensorcq.Deployment) error {
	if _, err := fmt.Fprintln(w, "record,field1,field2,field3,field4"); err != nil {
		return err
	}
	g := dep.Graph
	for n := 0; n < g.NumNodes(); n++ {
		for _, nb := range g.Neighbors(sensorcq.NodeID(n)) {
			if int(nb) > n {
				if _, err := fmt.Fprintf(w, "edge,%d,%d,,\n", n, nb); err != nil {
					return err
				}
			}
		}
	}
	for _, s := range dep.Sensors {
		if _, err := fmt.Fprintf(w, "sensor,%s,%s,%d,\"%g;%g\"\n",
			s.ID, s.Attr, dep.SensorHost[s.ID], s.Location.X, s.Location.Y); err != nil {
			return err
		}
	}
	return nil
}

// dumpTrace writes the trace round by round as the streamer produces it, so
// no round outlives its write; only the streamer's value summaries grow with
// the round count (8 bytes per reading, see dataset.Streamer).
func dumpTrace(w io.Writer, streamer *sensorcq.TraceStreamer) error {
	if _, err := fmt.Fprintln(w, "seq,sensor,attribute,value,time"); err != nil {
		return err
	}
	for {
		round := streamer.NextRound()
		if round == nil {
			return nil
		}
		for _, ev := range round {
			if _, err := fmt.Fprintf(w, "%d,%s,%s,%.3f,%d\n", ev.Seq, ev.Sensor, ev.Attr, ev.Value, ev.Time); err != nil {
				return err
			}
		}
	}
}

// dumpWorkload writes each subscription as the stream produces it.
func dumpWorkload(w io.Writer, stream *sensorcq.WorkloadStream) error {
	if _, err := fmt.Fprintln(w, "subscription,node,group,attributes,filters"); err != nil {
		return err
	}
	for stream.Next() {
		p := stream.Placed()
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%q\n",
			p.Sub.ID, p.Node, p.Group, p.Sub.NumFilters(), p.Sub.String()); err != nil {
			return err
		}
	}
	return stream.Err()
}
