package config

import (
	"testing"
	"testing/quick"
)

func TestCoreTable(t *testing.T) {
	// Table I verbatim.
	cases := []struct {
		size                CoreSize
		issue, rob, rs, lsq int
	}{
		{SizeS, 2, 64, 16, 10},
		{SizeM, 4, 128, 64, 32},
		{SizeL, 8, 256, 128, 64},
	}
	for _, c := range cases {
		p := Core(c.size)
		if p.Size != c.size || p.IssueWidth != c.issue || p.ROB != c.rob || p.RS != c.rs || p.LSQ != c.lsq {
			t.Errorf("Core(%s) = %+v, want issue=%d rob=%d rs=%d lsq=%d",
				c.size, p, c.issue, c.rob, c.rs, c.lsq)
		}
	}
}

func TestCoreSizeString(t *testing.T) {
	if SizeS.String() != "S" || SizeM.String() != "M" || SizeL.String() != "L" {
		t.Errorf("unexpected core size names: %s %s %s", SizeS, SizeM, SizeL)
	}
	if got := CoreSize(9).String(); got != "CoreSize(9)" {
		t.Errorf("out-of-range CoreSize string = %q", got)
	}
}

func TestCoreSizeValid(t *testing.T) {
	for _, c := range Sizes {
		if !c.Valid() {
			t.Errorf("%s should be valid", c)
		}
	}
	if CoreSize(-1).Valid() || CoreSize(3).Valid() {
		t.Error("out-of-range sizes must be invalid")
	}
}

func TestMaxROBMatchesTable(t *testing.T) {
	if Core(SizeL).ROB != MaxROB {
		t.Errorf("MaxROB %d != L-core ROB %d", MaxROB, Core(SizeL).ROB)
	}
	if IndexWindow != 4*MaxROB {
		t.Errorf("index window %d, want 4×ROB = %d", IndexWindow, 4*MaxROB)
	}
}

func TestFreqGrid(t *testing.T) {
	if FreqGHz(0) != FMinGHz {
		t.Errorf("first grid frequency %.2f, want %.2f", FreqGHz(0), FMinGHz)
	}
	if FreqGHz(NumFreqs-1) != FMaxGHz {
		t.Errorf("last grid frequency %.2f, want %.2f", FreqGHz(NumFreqs-1), FMaxGHz)
	}
	if FreqGHz(BaseFreqIdx) != FBaseGHz {
		t.Errorf("baseline grid frequency %.2f, want %.2f", FreqGHz(BaseFreqIdx), FBaseGHz)
	}
}

func TestFreqIndexRoundTrip(t *testing.T) {
	for i := 0; i < NumFreqs; i++ {
		if got := FreqIndex(FreqGHz(i)); got != i {
			t.Errorf("FreqIndex(FreqGHz(%d)) = %d", i, got)
		}
	}
	if FreqIndex(1.37) != -1 {
		t.Error("off-grid frequency should return -1")
	}
}

func TestVoltageEndpoints(t *testing.T) {
	cases := []struct{ f, v float64 }{
		{FMinGHz, VMin},
		{FBaseGHz, VBase},
		{FMaxGHz, VMax},
	}
	for _, c := range cases {
		if got := Voltage(c.f); !close(got, c.v) {
			t.Errorf("Voltage(%.2f) = %.4f, want %.4f", c.f, got, c.v)
		}
	}
}

func TestVoltageMonotonic(t *testing.T) {
	prev := Voltage(FreqGHz(0))
	for i := 1; i < NumFreqs; i++ {
		v := Voltage(FreqGHz(i))
		if v <= prev {
			t.Fatalf("voltage not monotonic at grid index %d: %.3f <= %.3f", i, v, prev)
		}
		prev = v
	}
}

func TestBaselineSetting(t *testing.T) {
	b := Baseline()
	if b.Core != SizeM || b.Freq != BaseFreqIdx || b.Ways != BaseWays {
		t.Errorf("baseline = %v, want M/2GHz/8w", b)
	}
	if !b.Valid() {
		t.Error("baseline must be valid")
	}
	if got := b.String(); got != "M/2.00GHz/8w" {
		t.Errorf("baseline string = %q", got)
	}
}

func TestSettingValid(t *testing.T) {
	bad := []Setting{
		{Core: CoreSize(5), Freq: 0, Ways: 8},
		{Core: SizeM, Freq: -1, Ways: 8},
		{Core: SizeM, Freq: NumFreqs, Ways: 8},
		{Core: SizeM, Freq: 0, Ways: MinWays - 1},
		{Core: SizeM, Freq: 0, Ways: MaxWays + 1},
	}
	for _, s := range bad {
		if s.Valid() {
			t.Errorf("setting %+v should be invalid", s)
		}
	}
}

func TestSettingValidQuick(t *testing.T) {
	// Property: Valid accepts exactly the Table I box.
	f := func(core, freq, ways int8) bool {
		s := Setting{Core: CoreSize(core % 5), Freq: int(freq % 12), Ways: int(ways % 20)}
		want := s.Core >= SizeS && s.Core <= SizeL &&
			s.Freq >= 0 && s.Freq < NumFreqs &&
			s.Ways >= MinWays && s.Ways <= MaxWays
		return s.Valid() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalWays(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		if got := TotalWays(n); got != 8*n {
			t.Errorf("TotalWays(%d) = %d, want %d", n, got, 8*n)
		}
	}
}

func TestRMInstructionOverhead(t *testing.T) {
	// Section III-E measured values.
	cases := []struct{ cores, want int }{{2, 51_000}, {4, 73_000}, {8, 100_000}}
	for _, c := range cases {
		if got := RMInstructionOverhead(c.cores); got != c.want {
			t.Errorf("RMInstructionOverhead(%d) = %d, want %d", c.cores, got, c.want)
		}
	}
	// Interpolated values stay within the measured envelope.
	for n := 2; n <= 8; n++ {
		got := RMInstructionOverhead(n)
		if got < 51_000 || got > 100_000 {
			t.Errorf("RMInstructionOverhead(%d) = %d outside [51K,100K]", n, got)
		}
	}
}

func TestPrevRMInstructionOverhead(t *testing.T) {
	cases := []struct{ cores, want int }{{2, 18_000}, {4, 40_000}, {8, 67_000}}
	for _, c := range cases {
		if got := PrevRMInstructionOverhead(c.cores); got != c.want {
			t.Errorf("PrevRMInstructionOverhead(%d) = %d, want %d", c.cores, got, c.want)
		}
	}
	// The proposed RM always costs more than the prior art's.
	for n := 2; n <= 8; n++ {
		if PrevRMInstructionOverhead(n) >= RMInstructionOverhead(n) {
			t.Errorf("prior-art overhead should be below the proposed RM's at %d cores", n)
		}
	}
}

func TestCacheGeometryScaling(t *testing.T) {
	// The scaled hierarchy must preserve Table I associativities and the
	// represented sizes must divide exactly by MemScale.
	if RepL3BytesPerCore/MemScale != L3BytesPerCore {
		t.Error("L3 scaling inconsistent")
	}
	if L3BytesPerCore%(L3WaysPerCore*BlockBytes) != 0 {
		t.Error("scaled L3 slice not divisible into ways")
	}
	// Per-way capacity must represent 256 KB (Table I allowed range).
	perWayRep := RepL3BytesPerCore / L3WaysPerCore
	if perWayRep != 256<<10 {
		t.Errorf("represented per-way capacity %d, want 256 KB", perWayRep)
	}
}

func TestModelMemLatency(t *testing.T) {
	if ModelMemLatencyNs <= DRAMLatencyNs {
		t.Error("model memory latency must include the LLC lookup")
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
