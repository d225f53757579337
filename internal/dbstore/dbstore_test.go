package dbstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/db"
)

// benchesByName resolves suite benchmarks by name.
func benchesByName(t *testing.T, names []string) []*bench.Benchmark {
	t.Helper()
	benches := make([]*bench.Benchmark, len(names))
	for i, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		benches[i] = b
	}
	return benches
}

// buildSmall builds a small database for serialisation tests.
func buildSmall(t *testing.T, names []string, traceLen, warmup int) *db.DB {
	t.Helper()
	d, err := db.Build(benchesByName(t, names), db.Options{TraceLen: traceLen, Warmup: warmup})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// requireSameDB fails unless got has want's build parameters and, for
// every benchmark of want, the same simulated corners bit for bit.
func requireSameDB(t *testing.T, label string, got, want *db.DB) {
	t.Helper()
	if got.TraceLen != want.TraceLen || got.Warmup != want.Warmup {
		t.Fatalf("%s: params %d/%d, want %d/%d", label, got.TraceLen, got.Warmup, want.TraceLen, want.Warmup)
	}
	for _, name := range want.Benchmarks() {
		if got.NumPhases(name) != want.NumPhases(name) {
			t.Fatalf("%s: %s has %d phases, want %d", label, name, got.NumPhases(name), want.NumPhases(name))
		}
		for p := 0; p < want.NumPhases(name); p++ {
			w, err := want.Corners(name, p)
			if err != nil {
				t.Fatal(err)
			}
			g, err := got.Corners(name, p)
			if err != nil {
				t.Fatal(err)
			}
			for ci := range w {
				for k := range w[ci] {
					for wi := range w[ci][k] {
						if !statsEqual(&w[ci][k][wi], &g[ci][k][wi]) {
							t.Fatalf("%s: %s phase %d corner [%d][%d][%d] differs", label, name, p, ci, k, wi)
						}
					}
				}
			}
		}
	}
}

// statsEqual compares two records bit for bit (NaN-safe, unlike ==).
func statsEqual(a, b *db.Stats) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.Instructions, b.Instructions) || !eq(a.TimeNs, b.TimeNs) ||
		!eq(a.BaseNs, b.BaseNs) || !eq(a.BranchNs, b.BranchNs) ||
		!eq(a.CacheNs, b.CacheNs) || !eq(a.MemNs, b.MemNs) ||
		!eq(a.L1Misses, b.L1Misses) || !eq(a.LLCAccesses, b.LLCAccesses) ||
		!eq(a.LLCHits, b.LLCHits) || !eq(a.LLCMisses, b.LLCMisses) ||
		!eq(a.DRAMLoads, b.DRAMLoads) || !eq(a.Writebacks, b.Writebacks) ||
		!eq(a.LeadingMisses, b.LeadingMisses) || !eq(a.Mispredicts, b.Mispredicts) ||
		!eq(a.MLP, b.MLP) {
		return false
	}
	for wi := range a.ATDMissCurve {
		if !eq(a.ATDMissCurve[wi], b.ATDMissCurve[wi]) {
			return false
		}
	}
	for ci := range a.ATDLM {
		for wi := range a.ATDLM[ci] {
			if !eq(a.ATDLM[ci][wi], b.ATDLM[ci][wi]) {
				return false
			}
		}
	}
	return true
}

// TestRoundTripBitIdentical is the equivalence property of the snapshot
// store: across suite subsets and trace lengths, a saved-then-loaded
// database matches the freshly built one bit for bit — both the raw
// simulated corners and every record the dense interpolated grid serves.
func TestRoundTripBitIdentical(t *testing.T) {
	cases := []struct {
		names            []string
		traceLen, warmup int
	}{
		{[]string{"mcf"}, 2048, 512},
		{[]string{"mcf", "povray"}, 4096, 1024},
		{[]string{"bwaves", "xalancbmk", "povray"}, 2048, 0},
	}
	for _, tc := range cases {
		d := buildSmall(t, tc.names, tc.traceLen, tc.warmup)
		path := filepath.Join(t.TempDir(), "suite.qosdb")
		if err := Save(path, d); err != nil {
			t.Fatalf("%v: %v", tc.names, err)
		}
		got, h, err := Load(path)
		if err != nil {
			t.Fatalf("%v: %v", tc.names, err)
		}
		if h.Benchmarks != len(tc.names) {
			t.Fatalf("%v: header says %d benchmarks", tc.names, h.Benchmarks)
		}
		requireSameDB(t, "round trip", got, d)
		for _, name := range tc.names {
			for p := 0; p < d.NumPhases(name); p++ {
				// The dense grid a loaded database serves must also match:
				// every (core, frequency, ways) record, interpolated ones
				// included.
				for ci := 0; ci < config.NumSizes; ci++ {
					for fi := 0; fi < config.NumFreqs; fi++ {
						for w := config.MinWays; w <= config.MaxWays; w++ {
							set := config.Setting{Core: config.CoreSize(ci), Freq: fi, Ways: w}
							want, err := d.Stats(name, p, set)
							if err != nil {
								t.Fatal(err)
							}
							have, err := got.Stats(name, p, set)
							if err != nil {
								t.Fatal(err)
							}
							if !statsEqual(want, have) {
								t.Fatalf("%s phase %d %v: dense record differs after round trip", name, p, set)
							}
						}
					}
				}
			}
		}
	}
}

// TestLoadOrBuildCachesAndRebuilds pins the snapshot cache that Open
// and the commands load through: a snapshot matching the request is
// served, and a change of trace length, warmup or benchmark set rebuilds
// and replaces it. Every database it returns matches a fresh build of
// the same request bit for bit, so a stale snapshot is never served.
func TestLoadOrBuildCachesAndRebuilds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.qosdb")
	steps := []struct {
		what             string
		names            []string
		traceLen, warmup int
		served           bool
	}{
		{"first call", []string{"mcf"}, 4096, 1024, false},
		{"matching snapshot", []string{"mcf"}, 4096, 1024, true},
		{"trace length change", []string{"mcf"}, 2048, 1024, false},
		{"warmup change", []string{"mcf"}, 2048, 512, false},
		{"added benchmark", []string{"mcf", "povray"}, 2048, 512, false},
	}
	var prev os.FileInfo
	for _, st := range steps {
		benches := benchesByName(t, st.names)
		opts := db.Options{TraceLen: st.traceLen, Warmup: st.warmup}
		got, err := LoadOrBuild(path, benches, opts)
		if err != nil {
			t.Fatalf("%s: %v", st.what, err)
		}
		// Save replaces the file by rename, so a rebuild always leaves a
		// new file behind and a served snapshot leaves the old one.
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s: snapshot not saved: %v", st.what, err)
		}
		if served := prev != nil && os.SameFile(prev, fi); served != st.served {
			t.Fatalf("%s: snapshot served = %v, want %v", st.what, served, st.served)
		}
		prev = fi
		want, err := db.Build(benches, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDB(t, st.what, got, want)
	}
}

// TestWriteCanonical asserts the format is canonical: serialising the
// same database twice yields identical bytes.
func TestWriteCanonical(t *testing.T) {
	d := buildSmall(t, []string{"povray", "mcf"}, 2048, 512)
	var a, b bytes.Buffer
	if err := Write(&a, d); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two serialisations of one database differ")
	}
}

// snapshotBytes renders one small snapshot for corruption tests.
func snapshotBytes(t *testing.T) []byte {
	t.Helper()
	d := buildSmall(t, []string{"mcf"}, 2048, 512)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRejectsCorruption(t *testing.T) {
	valid := snapshotBytes(t)
	if _, _, err := Read(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[0] ^= 0xff
		if _, _, err := Read(bytes.NewReader(b)); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("version bump", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b[8:12], Version+1)
		_, _, err := Read(bytes.NewReader(b))
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("want ErrVersion, got %v", err)
		}
	})
	t.Run("payload bit flip", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[len(b)/2] ^= 0x01
		if _, _, err := Read(bytes.NewReader(b)); err == nil {
			t.Fatal("bit-flipped payload accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 1, headerSize - 1, headerSize, len(valid) / 2, len(valid) - 1} {
			if _, _, err := Read(bytes.NewReader(valid[:n])); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
		}
	})
	t.Run("trailing data", func(t *testing.T) {
		b := append(append([]byte(nil), valid...), 0x00)
		if _, _, err := Read(bytes.NewReader(b)); err == nil {
			t.Fatal("trailing data accepted")
		}
	})
	t.Run("stale params hash", func(t *testing.T) {
		// Rewrite the stored hash and re-seal the envelope: the payload
		// is intact (checksum passes) but claims different parameters —
		// the stale-snapshot case the hash exists to catch.
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(b[16:24], binary.LittleEndian.Uint64(b[16:24])^0xdeadbeef)
		_, _, err := Read(bytes.NewReader(b))
		if !errors.Is(err, ErrStale) {
			t.Fatalf("want ErrStale, got %v", err)
		}
	})
}

// TestReadAllocationsPinned pins the snapshot reader's allocation
// behaviour: the payload buffer is pre-sized from the verified header
// length and the phase blocks are batch-allocated per benchmark, so a
// load allocates a small constant factor over the snapshot size. The
// append-growth regime this replaces allocated ~6x the payload in
// copies alone (BENCH_6: 39.6 MB allocated to load a 6.3 MB snapshot).
func TestReadAllocationsPinned(t *testing.T) {
	d := buildSmall(t, []string{"mcf", "povray"}, 4096, 1024)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	read := func() {
		if _, _, err := Read(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}

	if allocs, max := testing.AllocsPerRun(5, read), 120.0; allocs > max {
		t.Fatalf("Read allocations = %.0f, want <= %.0f", allocs, max)
	}

	// Bytes matter more than counts here: the in-memory corner blocks
	// are the same size as the payload, so a clean decode costs about
	// 2x the snapshot (blocks + payload buffer) plus small change.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(data))*5/2; got > limit {
		t.Fatalf("Read allocated %d bytes for a %d-byte snapshot, want <= %d (2.5x)",
			got, len(data), limit)
	}
}
