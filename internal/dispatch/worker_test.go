package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkerFailsUndecodableEnvelope: a leased envelope the strict decoder
// refuses — a skewed wire version or an unknown field — is failed back to
// the coordinator with the decoder's reason, before the worker consults
// the shard cache or builds a spec from it.
func TestWorkerFailsUndecodableEnvelope(t *testing.T) {
	env, err := (&ShardEnvelope{V: WireVersion, JobIDs: []int{0}, Req: testWire()}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := (&ShardEnvelope{V: WireVersion + 1, JobIDs: []int{0}, Req: testWire()}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, reason string
		env          []byte
	}{
		{"version-skew", fmt.Sprintf("shard wire version %d,", WireVersion+1), skewed},
		{"unknown-field", `unknown field "bogus"`, append([]byte(`{"bogus":true,`), env[1:]...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failed := make(chan string, 1)
			var leases atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path == "/v1/dispatch/lease" && leases.Add(1) == 1:
					fmt.Fprintf(w, `{"task":"t1","lease":"l1","attempt":1,"ttl_ms":60000,"env":%s}`, tc.env)
				case r.URL.Path == "/v1/dispatch/lease":
					// One lease only: park later polls until the worker
					// hangs up. Draining the body lets the server notice
					// the hang-up.
					io.Copy(io.Discard, r.Body)
					<-r.Context().Done()
				case r.URL.Path == "/v1/dispatch/tasks/t1/fail" && r.URL.Query().Get("lease") == "l1":
					var req failRequest
					if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
						t.Errorf("fail body: %v", err)
					}
					failed <- req.Err
				default:
					t.Errorf("worker went past the envelope decode: %s %s", r.Method, r.URL.Path)
					http.Error(w, "unexpected", http.StatusTeapot)
				}
			}))
			defer srv.Close()

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				done <- RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, ID: "w1", PollWait: time.Second})
			}()
			select {
			case msg := <-failed:
				if !strings.Contains(msg, tc.reason) {
					t.Errorf("fail message %q does not name %q", msg, tc.reason)
				}
			case <-time.After(10 * time.Second):
				t.Error("worker never failed the task")
			}
			cancel()
			<-done
		})
	}
}
