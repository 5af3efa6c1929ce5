//go:build scandebug

package dist

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
)

// TestReleasedReceiveBuffersArePoisoned proves the scandebug mode works
// on the coordinator's receive buffers: once an answer's release hook
// has run, the state bytes it carried read 0xDB, so a Restore that kept
// a slice of them instead of copying fails this package's bit-identity
// tests loudly instead of reading the next answer's bytes.
func TestReleasedReceiveBuffersArePoisoned(t *testing.T) {
	spec := Spec{Patterns: []string{"error", "the"}, Complexity: true}
	p := testPlan(t, 12)
	ts := httptest.NewServer(NewWorkerServer("w", p).Handler())
	defer ts.Close()
	resp, err := NewHTTPWorker("w", ts.URL).Scan(context.Background(), &ScanRequest{PlanFP: p.Fingerprint(), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	kept := resp.States // what an aliasing Restore would hold on to
	resp.release()
	for i, s := range kept {
		if len(s) == 0 || !bytes.Equal(s, bytes.Repeat([]byte{poisonByte}, len(s))) {
			t.Errorf("state %d of a released answer still reads %q…, want 0xDB", i, s[:min(len(s), 8)])
		}
	}
}
