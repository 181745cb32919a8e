package jobs

import (
	"encoding/json"
	"testing"
)

// heldChunks reports how many chunk payloads the manager still holds for
// id and whether it holds a payload slice at all.
func heldChunks(t *testing.T, m *Manager, id string) (n int, held bool) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	return len(j.chunks), j.chunks != nil
}

// TestTerminalReleasesChunks pins that finished jobs keep no chunk
// payloads — after done, fail and cancel, both live and when the journal
// replays them — while a job the crash interrupted mid-run keeps the
// chunks its resume needs.
func TestTerminalReleasesChunks(t *testing.T) {
	dir := t.TempDir()
	gated := &fakeRunner{kind: "gated", chunks: 3, failAt: -1,
		gate: make(chan struct{}), started: make(chan int, 16)}
	runners := []Runner{
		&fakeRunner{kind: "ok", chunks: 3, failAt: -1},
		&fakeRunner{kind: "bad", chunks: 3, failAt: 1},
		gated,
	}
	m := newTestManager(t, Config{Dir: dir, Runners: runners})
	crash := startWorker(t, m)
	submit := func(m *Manager, kind string) string {
		t.Helper()
		j, err := m.Submit(kind, json.RawMessage(`{}`), 0)
		if err != nil {
			t.Fatal(err)
		}
		return j.ID
	}
	released := func(m *Manager, id, when string) {
		t.Helper()
		if n, held := heldChunks(t, m, id); held {
			t.Errorf("%s job %s still holds %d chunk payloads", when, id, n)
		}
	}

	done := submit(m, "ok")
	awaitState(t, m, done, StateDone)
	released(m, done, "done")

	failed := submit(m, "bad")
	if got := awaitState(t, m, failed, StateFailed); got.ChunksDone != 1 {
		t.Errorf("failed job reports %d chunks done, want 1", got.ChunksDone)
	}
	released(m, failed, "failed")

	cancelled := submit(m, "gated")
	<-gated.started          // chunk 0 executing
	gated.gate <- struct{}{} // chunk 0 journals
	<-gated.started          // chunk 1 executing
	if _, err := m.Cancel(cancelled); err != nil {
		t.Fatal(err)
	}
	released(m, cancelled, "cancelled")
	awaitState(t, m, cancelled, StateCancelled)

	resumed := submit(m, "gated")
	<-gated.started          // chunk 0 executing
	gated.gate <- struct{}{} // chunk 0 journals
	<-gated.started          // chunk 1 executing, not journaled
	crash()
	m.Close()

	runners[2] = &fakeRunner{kind: "gated", chunks: 3, failAt: -1}
	m2 := newTestManager(t, Config{Dir: dir, Runners: runners})
	for _, id := range []string{done, failed, cancelled} {
		released(m2, id, "replayed")
	}
	if n, _ := heldChunks(t, m2, resumed); n != 1 {
		t.Fatalf("interrupted job replayed with %d chunks, want 1 for its resume", n)
	}
	startWorker(t, m2)
	awaitState(t, m2, resumed, StateDone)
	released(m2, resumed, "resumed and done")
}
