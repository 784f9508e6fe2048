package server

import (
	"fmt"
	"time"

	"sensorcq"
)

// Server settings. A registration may choose its own sink buffer and
// backpressure policy; everything else is fixed.
const (
	// DefaultSinkBuffer is the per-subscription delivery-channel capacity
	// used when a registration does not choose its own.
	DefaultSinkBuffer = 64
	// DefaultMaxBatchBytes bounds the body of a single /events or
	// /subscriptions request; larger bodies fail with 413.
	DefaultMaxBatchBytes = 8 << 20
	// DefaultDrainTimeout bounds the in-flight drain of a graceful
	// shutdown.
	DefaultDrainTimeout = 30 * time.Second
	// DefaultKeepAliveInterval is the period of SSE keep-alive comments on
	// an idle stream, so intermediaries do not time the connection out.
	DefaultKeepAliveInterval = 15 * time.Second
)

// Config parameterises a Server. The zero value is valid: every field has a
// working default.
type Config struct {
	// DefaultNode is the processing node subscriptions are registered at
	// when their spec does not name one (typically the network's root or
	// the node closest to the daemon's users).
	DefaultNode sensorcq.NodeID

	// DrainTimeout bounds how long Shutdown waits for in-flight rounds to
	// propagate before forcing handles closed. Values <= 0 take
	// DefaultDrainTimeout.
	DrainTimeout time.Duration
}

// withDefaults returns the config with zero-valued fields replaced by the
// package defaults.
func (c Config) withDefaults() Config {
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	return c
}

// validate rejects configs that cannot serve: an out-of-range default node.
func (c Config) validate(sys *sensorcq.System) error {
	if sys == nil {
		return fmt.Errorf("server: nil System")
	}
	if n := sys.Deployment().Graph.NumNodes(); int(c.DefaultNode) < 0 || int(c.DefaultNode) >= n {
		return fmt.Errorf("server: default node %d outside deployment [0,%d)", c.DefaultNode, n)
	}
	return nil
}
