package engineflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"sensorcq/internal/netsim"
)

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string // substring; empty means valid
		mode    netsim.DeliveryMode
	}{
		{args: "", mode: netsim.Quiescent},
		{args: "-concurrent -workers 2 -delivery windowed -lag 2", mode: netsim.Windowed},
		{args: "-delivery pipelined", mode: netsim.Pipelined},
		{args: "-delivery sometimes", wantErr: "-delivery"},
		{args: "-lag 1", wantErr: "-lag"},
		{args: "-delivery pipelined -lag 1", wantErr: "-lag"},
		{args: "-delivery windowed -lag -1", wantErr: "-lag"},
		{args: "-delivery windowed -lag 100000", wantErr: "-lag"},
		{args: "-workers 2", wantErr: "-workers"},
		{args: "-concurrent -workers -1", wantErr: "-workers"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := Register(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: parse: %v", tc.args, err)
		}
		err := f.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: unexpected error %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q: error %v, want one naming %s", tc.args, err, tc.wantErr)
		case tc.wantErr == "" && f.Delivery != tc.mode:
			t.Errorf("%q: delivery %v, want %v", tc.args, f.Delivery, tc.mode)
		}
	}
}
