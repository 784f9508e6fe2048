// Package engineflags registers and validates the command-line flags that
// select an engine and a delivery mode. cqsim, cqexp and cqd share it so the
// flags are spelled, described and checked in one place; cqd, which ingests
// every request as one quiescent round, rejects any other delivery mode.
package engineflags

import (
	"flag"
	"fmt"
	"strings"

	"sensorcq/internal/netsim"
)

// Flags is the engine selection of one command line.
type Flags struct {
	Concurrent bool
	Workers    int
	Lag        int
	// Delivery is resolved from -delivery by Validate.
	Delivery netsim.DeliveryMode

	delivery string
}

// Register adds -concurrent, -workers, -delivery and -lag to the flag set.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Concurrent, "concurrent", false,
		"run on the concurrent engine (a worker pool sharing one run queue)")
	fs.IntVar(&f.Workers, "workers", 0,
		"scheduler workers of the concurrent engine (0 = GOMAXPROCS; requires -concurrent)")
	fs.StringVar(&f.delivery, "delivery", netsim.Quiescent.String(),
		"replay delivery semantics: quiescent (drain after every event), pipelined (drain after every round) or windowed (overlap up to -lag+1 rounds)")
	fs.IntVar(&f.Lag, "lag", 0,
		"cross-round pipelining bound of the windowed delivery mode (requires -delivery windowed)")
	return f
}

// Validate resolves -delivery and checks the flag combination; call it after
// the flag set has been parsed. The error names the offending flag.
func (f *Flags) Validate() error {
	mode, err := netsim.ParseDeliveryMode(f.delivery)
	if err != nil {
		return fmt.Errorf("invalid -delivery %q: valid modes are %s",
			f.delivery, strings.Join(netsim.DeliveryModeNames(), ", "))
	}
	f.Delivery = mode
	if (netsim.ReplayOptions{Mode: mode, Lag: f.Lag}).Validate() != nil {
		return fmt.Errorf("invalid -lag %d: it must be in 0..%d and requires -delivery windowed", f.Lag, netsim.MaxReplayLag)
	}
	if f.Workers < 0 || (f.Workers > 0 && !f.Concurrent) {
		return fmt.Errorf("invalid -workers %d: it must be >= 0 and requires -concurrent", f.Workers)
	}
	return nil
}
