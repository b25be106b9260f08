package feedback

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/plan"
)

func testObservations(t testing.TB, n int) []*Observation {
	t.Helper()
	plans := executedPlans(t, 17, 12)
	obs := make([]*Observation, n)
	for i := range obs {
		obs[i] = &Observation{
			Schema:       "tpch",
			Resource:     plan.CPUTime,
			ModelVersion: uint64(i + 1),
			Predicted:    float64(i) * 1.5,
			Plan:         plans[i%len(plans)],
			UnixNanos:    int64(i + 1),
		}
	}
	return obs
}

// bulkObservations is testObservations with a schema name of the
// longest length the codec takes, so that a few hundred records fill
// several of the log's segments.
func bulkObservations(t testing.TB, n int) []*Observation {
	t.Helper()
	obs := testObservations(t, n)
	schema := strings.Repeat("s", maxSchemaLen-1)
	for _, o := range obs {
		o.Schema = schema
	}
	return obs
}

func replayAll(t *testing.T, l *Log) []*Observation {
	t.Helper()
	var out []*Observation
	n, err := l.Replay(func(o *Observation) error {
		out = append(out, o)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != len(out) {
		t.Fatalf("replay count %d, callbacks %d", n, len(out))
	}
	return out
}

func TestLogAppendReplayOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	obs := testObservations(t, 25)
	for _, o := range obs {
		if err := l.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	got := replayAll(t, l)
	if len(got) != len(obs) {
		t.Fatalf("replayed %d of %d", len(got), len(obs))
	}
	for i := range got {
		if got[i].ModelVersion != obs[i].ModelVersion || got[i].UnixNanos != obs[i].UnixNanos {
			t.Fatalf("record %d out of order: %+v", i, got[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(obs[0]); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestLogSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Fewer segments than retainSegments: this test asserts every record
	// survives rotation; retention is covered by TestLogRetention.
	l, err := OpenLog(LogOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	obs := bulkObservations(t, 200)
	for _, o := range obs {
		if err := l.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if got := replayAll(t, l); len(got) != len(obs) {
		t.Fatalf("replayed %d of %d across segments", len(got), len(obs))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected rotation to produce several segments, found %d files", len(entries))
	}
	for _, e := range entries {
		if _, _, ok := parseSegmentName(e.Name()); !ok {
			t.Fatalf("stray file %q in log directory", e.Name())
		}
	}
	l.Close()

	// Reopen appends into the newest segment without disturbing history.
	l2, err := OpenLog(LogOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(obs[0]); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l2); len(got) != len(obs)+1 {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(obs)+1)
	}
}

// TestLogCrashRecovery simulates a crash mid-write at every byte of the
// tail record: each reopen must truncate the segment back to the last
// record whose CRC checks out, replay exactly the records whose Append
// returned, and take the next append cleanly.
func TestLogCrashRecovery(t *testing.T) {
	obs := testObservations(t, 4)
	written := t.TempDir()
	l, err := OpenLog(LogOptions{Dir: written})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs[:3] {
		if err := l.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(written, segmentName(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	tail, err := EncodeObservation(nil, obs[3])
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, segmentName(0, 1))
	for cut := 0; cut < len(tail); cut++ {
		// The crash left the three acknowledged records and the first
		// cut bytes of a fourth.
		torn := append(slices.Clip(good), tail[:cut]...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(LogOptions{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: reopen after crash: %v", cut, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != int64(len(good)) {
			t.Fatalf("cut %d: segment is %d bytes, want %d: not truncated to the last good record", cut, st.Size(), len(good))
		}
		assertVersions(t, replayAll(t, l), 1, 2, 3)
		if err := l.Append(obs[3]); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		assertVersions(t, replayAll(t, l), 1, 2, 3, 4)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLogProcessKill abandons a log without Close, as a killed process
// does, and reopens its directory: nothing Append returned for may be
// lost, since every record went to the OS before Append returned.
func TestLogProcessKill(t *testing.T) {
	dir := t.TempDir()
	obs := testObservations(t, 6)
	dead, err := OpenLog(LogOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dead.Close() })
	for _, o := range obs[:5] {
		if err := dead.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	l, err := OpenLog(LogOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	assertVersions(t, replayAll(t, l), 1, 2, 3, 4, 5)
	if err := l.Append(obs[5]); err != nil {
		t.Fatal(err)
	}
	assertVersions(t, replayAll(t, l), 1, 2, 3, 4, 5, 6)
}

// assertVersions checks a replay's model versions, which
// testObservations numbers from 1.
func assertVersions(t *testing.T, got []*Observation, want ...uint64) {
	t.Helper()
	versions := make([]uint64, len(got))
	for i, o := range got {
		versions[i] = o.ModelVersion
	}
	if !slices.Equal(versions, want) {
		t.Fatalf("replayed versions %v, want %v", versions, want)
	}
}

// TestLogCorruptMiddleStopsShard flips a byte mid-segment: replay keeps
// the prefix and drops the suffix (resyncing into a framed stream after
// damage risks fabricating records).
func TestLogCorruptMiddleStopsShard(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	obs := testObservations(t, 8)
	for _, o := range obs {
		if err := l.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, segmentName(0, 1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := ReplayDir(dir, func(*Observation) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 || n >= len(obs) {
		t.Fatalf("replayed %d records from corrupt segment, want a strict prefix of %d", n, len(obs))
	}
}

// TestLogShardedConcurrentAppend has eight goroutines append to the
// log's one writer at once: every record lands, and replays.
func TestLogShardedConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	obs := testObservations(t, 16)
	const (
		writers = 8
		each    = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(obs[(w+i)%len(obs)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := replayAll(t, l); len(got) != writers*each {
		t.Fatalf("replayed %d of %d concurrent appends", len(got), writers*each)
	}
}

// TestLogRetention bounds the log: old segments are pruned on rotation
// and on open, so replay covers a recent suffix instead of all of
// history.
func TestLogRetention(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	obs := bulkObservations(t, 640)
	for _, o := range obs {
		if err := l.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > retainSegments {
		t.Fatalf("%d segments on disk, want <= %d", len(entries), retainSegments)
	}
	got := replayAll(t, l)
	if len(got) == 0 || len(got) >= len(obs) {
		t.Fatalf("replayed %d records, want a non-empty recent suffix of %d", len(got), len(obs))
	}
	// The survivors must be the most recent records, in order.
	tail := obs[len(obs)-len(got):]
	for i := range got {
		if got[i].ModelVersion != tail[i].ModelVersion {
			t.Fatalf("record %d: version %d, want %d (not the newest suffix)", i, got[i].ModelVersion, tail[i].ModelVersion)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Open prunes a backlog beyond the bound — one left by a binary that
	// retained more, or by a failed best-effort remove — immediately.
	backlog := t.TempDir()
	for k := 1; k <= retainSegments+2; k++ {
		if err := os.WriteFile(filepath.Join(backlog, segmentName(logWriter, k)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l2, err := OpenLog(LogOptions{Dir: backlog})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	entries, err = os.ReadDir(backlog)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, e := range entries {
		kept = append(kept, e.Name())
	}
	var want []string
	for k := 3; k <= retainSegments+2; k++ {
		want = append(want, segmentName(logWriter, k))
	}
	if !slices.Equal(kept, want) {
		t.Fatalf("after open with %d segments: %v, want the newest %d: %v", retainSegments+2, kept, retainSegments, want)
	}
}

// TestSegmentsReplayOrder lists a directory holding two writers'
// segments and files named otherwise (a writer or segment index not of
// the log's width among them): the segments come back by writer, then
// by index, and nothing else.
func TestSegmentsReplayOrder(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"obs-01-00000001.seg", "obs-00-100000000.seg", "obs-00-00000002.seg",
		"obs-00-00000010.seg", "obs-0-00000003.seg", "obs-00-00000004.tmp", "notes.txt",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range got {
		names = append(names, filepath.Base(p))
	}
	want := []string{"obs-00-00000002.seg", "obs-00-00000010.seg", "obs-01-00000001.seg"}
	if !slices.Equal(names, want) {
		t.Errorf("Segments = %v, want %v", names, want)
	}
	if _, err := Segments(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Segments of a missing directory: %v, want a not-exist error", err)
	}
}
