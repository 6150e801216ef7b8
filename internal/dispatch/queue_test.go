package dispatch

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testEnv(ids ...int) *ShardEnvelope {
	if len(ids) == 0 {
		ids = []int{0}
	}
	return &ShardEnvelope{
		V: WireVersion, Shard: 0, Shards: 1, JobIDs: ids,
		Req: &RequestWire{V: WireVersion, Deck: "r1 1 0 1k\n", Name: "t"},
	}
}

func newTestQueue(t *testing.T, ttl time.Duration, maxAtt int, dir string) *Queue {
	t.Helper()
	q := NewQueue(QueueOptions{LeaseTTL: ttl, MaxAttempts: maxAtt, JournalDir: dir, Logf: t.Logf})
	t.Cleanup(q.Close)
	return q
}

func mustLease(t *testing.T, q *Queue, worker string) *Lease {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	l, err := q.Lease(ctx, worker)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	return l
}

func TestQueueLeaseCompleteDelivers(t *testing.T) {
	q := newTestQueue(t, time.Second, 3, "")
	h, err := q.Enqueue("g1", testEnv(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	l := mustLease(t, q, "w1")
	if l.TaskID != h.ID || l.Attempt != 1 {
		t.Fatalf("lease %+v does not match handle %s", l, h.ID)
	}
	if err := q.Complete(l.TaskID, l.LeaseID, []byte("payload")); err != nil {
		t.Fatalf("complete: %v", err)
	}
	out := <-h.Done
	if string(out.Payload) != "payload" || out.Err != "" || out.Attempts != 1 {
		t.Fatalf("outcome %+v", out)
	}
	st := q.Stats()
	if st.Completed != 1 || st.Depth != 0 || st.LeasesActive != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestQueueExpiryRequeues is the dead-worker path: a lease that stops
// renewing expires and the task is re-leased with its attempt bumped —
// without the enqueuer seeing anything but the eventual outcome.
func TestQueueExpiryRequeues(t *testing.T) {
	q := newTestQueue(t, 40*time.Millisecond, 3, "")
	h, _ := q.Enqueue("g1", testEnv())
	l1 := mustLease(t, q, "doomed")
	// Simulate SIGKILL: never renew, never complete.
	l2 := mustLease(t, q, "survivor")
	if l2.TaskID != l1.TaskID || l2.Attempt != 2 {
		t.Fatalf("re-lease %+v after %+v", l2, l1)
	}
	if l2.LeaseID == l1.LeaseID {
		t.Fatal("lease ID must rotate on requeue")
	}
	// The dead worker's stale lease is rejected everywhere.
	if err := q.Renew(l1.TaskID, l1.LeaseID); err != ErrLeaseLost {
		t.Fatalf("stale renew: %v", err)
	}
	if err := q.Complete(l1.TaskID, l1.LeaseID, []byte("zombie")); err != ErrLeaseLost {
		t.Fatalf("stale complete: %v", err)
	}
	if err := q.Complete(l2.TaskID, l2.LeaseID, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if out := <-h.Done; string(out.Payload) != "ok" || out.Attempts != 2 {
		t.Fatalf("outcome %+v", out)
	}
	st := q.Stats()
	if st.Expirations < 1 || st.Retries < 1 {
		t.Fatalf("stats %+v: expiry not counted", st)
	}
}

func TestQueueRenewKeepsLeaseAlive(t *testing.T) {
	q := newTestQueue(t, 50*time.Millisecond, 2, "")
	h, _ := q.Enqueue("g1", testEnv())
	l := mustLease(t, q, "w1")
	for i := 0; i < 8; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := q.Renew(l.TaskID, l.LeaseID); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if err := q.Complete(l.TaskID, l.LeaseID, []byte("late but alive")); err != nil {
		t.Fatalf("complete after 160ms on a 50ms TTL: %v", err)
	}
	if out := <-h.Done; out.Attempts != 1 {
		t.Fatalf("outcome %+v: lease should never have expired", out)
	}
}

func TestQueueMaxAttemptsTerminalFailure(t *testing.T) {
	q := newTestQueue(t, time.Second, 2, "")
	h, _ := q.Enqueue("g1", testEnv())
	for attempt := 1; attempt <= 2; attempt++ {
		l := mustLease(t, q, "w1")
		if l.Attempt != attempt {
			t.Fatalf("attempt %d, lease says %d", attempt, l.Attempt)
		}
		if err := q.Fail(l.TaskID, l.LeaseID, "synthetic"); err != nil {
			t.Fatal(err)
		}
	}
	out := <-h.Done
	if out.Err == "" || out.Canceled || out.Attempts != 2 {
		t.Fatalf("outcome %+v: want terminal failure after 2 attempts", out)
	}
	st := q.Stats()
	if st.Failed != 1 || st.Retries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestQueueCancelGroup(t *testing.T) {
	q := newTestQueue(t, time.Second, 3, "")
	hLeased, _ := q.Enqueue("g1", testEnv(0))
	hPending, _ := q.Enqueue("g1", testEnv(1))
	hOther, _ := q.Enqueue("g2", testEnv(2))
	l := mustLease(t, q, "w1") // g1's first task

	q.CancelGroup("g1")

	// Pending g1 task delivers immediately.
	out := <-hPending.Done
	if !out.Canceled {
		t.Fatalf("pending outcome %+v", out)
	}
	// The leased one tells its worker on the next renewal, and completion
	// delivers a canceled outcome rather than a result.
	if err := q.Renew(l.TaskID, l.LeaseID); err != ErrCanceled {
		t.Fatalf("renew after cancel: %v", err)
	}
	if err := q.Complete(l.TaskID, l.LeaseID, []byte("x")); err != ErrCanceled {
		t.Fatalf("complete after cancel: %v", err)
	}
	if out := <-hLeased.Done; !out.Canceled {
		t.Fatalf("leased outcome %+v", out)
	}
	// The other group is untouched.
	l2 := mustLease(t, q, "w1")
	if err := q.Complete(l2.TaskID, l2.LeaseID, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if out := <-hOther.Done; string(out.Payload) != "ok" {
		t.Fatalf("other group outcome %+v", out)
	}
}

func TestQueueJournalLifecycle(t *testing.T) {
	dir := t.TempDir()
	q := newTestQueue(t, time.Second, 3, dir)
	h1, _ := q.Enqueue("g1", testEnv(0))
	q.Enqueue("g1", testEnv(1))

	tasks, err := RecoverPending(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 {
		t.Fatalf("journal holds %d tasks, want 2", len(tasks))
	}
	for _, task := range tasks {
		if task.Env == nil || task.Env.Req == nil || task.Group != "g1" {
			t.Fatalf("recovered task %+v lost its envelope", task)
		}
	}

	// Terminal states remove journal entries.
	l := mustLease(t, q, "w1")
	if err := q.Complete(l.TaskID, l.LeaseID, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	<-h1.Done
	left, err := RecoverPending(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Fatalf("journal holds %d tasks after completion, want 1", len(left))
	}

	// Corrupt journal entries fail loudly.
	if err := os.WriteFile(filepath.Join(dir, "t999999.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverPending(dir); err == nil {
		t.Fatal("RecoverPending accepted a corrupt entry")
	}
}

// TestRecoverPendingSkipsTornTempFile: a process killed inside journalWrite
// leaves its half-written temp file next to the good entries. Recovery must
// read the good entries and ignore the temp file.
func TestRecoverPendingSkipsTornTempFile(t *testing.T) {
	dir := t.TempDir()
	q := newTestQueue(t, time.Second, 3, dir)
	q.Enqueue("g1", testEnv(0))
	q.Enqueue("g1", testEnv(1))
	if err := os.WriteFile(filepath.Join(dir, "t000003.json.tmp"), []byte(`{"id":"t0000`), 0o644); err != nil {
		t.Fatal(err)
	}
	tasks, err := RecoverPending(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 {
		t.Fatalf("recovered %d tasks, want the 2 good entries", len(tasks))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "t000003.json.tmp" && strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("journalWrite left its temp file %s behind", e.Name())
		}
	}
}

func TestQueueCloseDeliversCanceled(t *testing.T) {
	q := NewQueue(QueueOptions{LeaseTTL: time.Second, Logf: t.Logf})
	hPending, _ := q.Enqueue("g1", testEnv(0))
	hLeased, _ := q.Enqueue("g1", testEnv(1))
	mustLease(t, q, "w1")
	q.Close()
	for _, h := range []*Handle{hPending, hLeased} {
		select {
		case out := <-h.Done:
			if !out.Canceled {
				t.Fatalf("outcome %+v", out)
			}
		case <-time.After(time.Second):
			t.Fatal("Close did not deliver an outcome")
		}
	}
	if _, err := q.Enqueue("g1", testEnv(2)); err != ErrQueueClosed {
		t.Fatalf("enqueue after close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := q.Lease(ctx, "w1"); err != ErrQueueClosed {
		t.Fatalf("lease after close: %v", err)
	}
}
