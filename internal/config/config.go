// Package config defines the baseline system configuration of the paper
// (Table I): the three adaptive core sizes, the per-core DVFS grid, the
// cache hierarchy geometry, the DRAM model parameters, and the resource
// manager overhead constants from Section III-E.
//
// Everything downstream (the timing model, the power model, the resource
// managers and the co-simulator) reads its hardware parameters from this
// package so that a single experiment-wide configuration exists.
package config

import "fmt"

// CoreSize identifies one of the three adaptive core configurations.
// The paper's core can be resized at run time between a Small, Medium and
// Large configuration with a balanced pipeline (Section I, Table I).
type CoreSize int

// The three core sizes of Table I. Medium is the baseline.
const (
	SizeS CoreSize = iota // 2-issue, ROB 64, RS 16, LSQ 10
	SizeM                 // 4-issue, ROB 128, RS 64, LSQ 32 (baseline)
	SizeL                 // 8-issue, ROB 256, RS 128, LSQ 64
)

// NumSizes is the number of adaptive core configurations.
const NumSizes = 3

// Sizes lists all core sizes in ascending order.
var Sizes = [NumSizes]CoreSize{SizeS, SizeM, SizeL}

// String returns the single-letter name used throughout the paper.
func (c CoreSize) String() string {
	switch c {
	case SizeS:
		return "S"
	case SizeM:
		return "M"
	case SizeL:
		return "L"
	}
	return fmt.Sprintf("CoreSize(%d)", int(c))
}

// Valid reports whether c is one of the three defined sizes.
func (c CoreSize) Valid() bool { return c >= SizeS && c <= SizeL }

// CoreParams holds the micro-architectural parameters of one core size
// (Table I, "Core" block).
type CoreParams struct {
	Size       CoreSize
	IssueWidth int // dispatch/issue width D(c)
	ROB        int // reorder buffer entries
	RS         int // reservation stations
	LSQ        int // load/store queue entries
}

// coreTable is Table I verbatim.
var coreTable = [NumSizes]CoreParams{
	SizeS: {Size: SizeS, IssueWidth: 2, ROB: 64, RS: 16, LSQ: 10},
	SizeM: {Size: SizeM, IssueWidth: 4, ROB: 128, RS: 64, LSQ: 32},
	SizeL: {Size: SizeL, IssueWidth: 8, ROB: 256, RS: 128, LSQ: 64},
}

// Core returns the micro-architectural parameters for size c.
func Core(c CoreSize) CoreParams { return coreTable[c] }

// MaxROB is the largest reorder buffer across core sizes; the ATD
// instruction-index window is sized as 4 × MaxROB (Section III-C).
const MaxROB = 256

// IndexWindow is the fixed instruction window over which ATD instruction
// indices wrap. The paper pessimistically uses four times the maximum ROB
// size, requiring 10 index bits.
const IndexWindow = 4 * MaxROB

// DVFS grid (Table I): per-core frequency 1.0–3.25 GHz, voltage
// 0.8–1.25 V, baseline 2 GHz / 1 V.
const (
	FMinGHz     = 1.0
	FMaxGHz     = 3.25
	FStepGHz    = 0.25
	FBaseGHz    = 2.0
	VMin        = 0.8
	VMax        = 1.25
	VBase       = 1.0
	NumFreqs    = 10 // (3.25-1.0)/0.25 + 1
	BaseFreqIdx = 4  // index of 2.0 GHz in the grid
)

// FreqGHz returns the i-th frequency of the DVFS grid in GHz.
func FreqGHz(i int) float64 { return FMinGHz + float64(i)*FStepGHz }

// FreqIndex returns the grid index of frequency f (GHz), or -1 if f is
// not on the grid (within 1e-9 tolerance).
func FreqIndex(f float64) int {
	for i := 0; i < NumFreqs; i++ {
		d := f - FreqGHz(i)
		if d < 1e-9 && d > -1e-9 {
			return i
		}
	}
	return -1
}

// Voltage returns the supply voltage (V) required to run at frequency f
// (GHz). The mapping is linear across the Table I range: 1.0 GHz → 0.8 V,
// 2.0 GHz → 1.0 V, 3.25 GHz → 1.25 V.
func Voltage(fGHz float64) float64 {
	return VMin + (fGHz-FMinGHz)*(VMax-VMin)/(FMaxGHz-FMinGHz)
}

// Cache hierarchy (Table I, "Cache" block). All caches use 64 B blocks
// and LRU replacement.
//
// Representative-region scaling: the paper simulates 100 M-instruction
// SimPoint windows, long enough to exercise multi-megabyte footprints.
// This reproduction uses much shorter synthetic windows, so the whole
// memory system is shrunk by MemScale: every cache keeps its
// associativity — the dimension the resource managers actually control —
// while its set count, and every application footprint, shrink together.
// Way-allocation behaviour (miss-vs-ways curves, partitioning trade-offs)
// is preserved exactly; only absolute capacities change. The Rep*
// constants record the Table I values the scaled geometry represents.
const (
	BlockBytes = 64

	// MemScale is the represented-to-simulated capacity ratio. 256×
	// keeps working sets small enough that a 32–64 K-instruction
	// representative window revisits them several times, the way a 100 M
	// SPEC window revisits a multi-megabyte working set.
	MemScale = 256

	RepL1Bytes        = 32 << 10  // Table I: 32 KB L1-I / L1-D
	RepL2Bytes        = 256 << 10 // Table I: 256 KB private L2
	RepL3BytesPerCore = 2 << 20   // Table I: 2 MB shared L3 per core

	L1Bytes = 1 << 10 // scaled L1-D (associativity preserved)
	L1Ways  = 4
	L2Bytes = 2 << 10 // scaled private L2
	L2Ways  = 8

	// The shared L3 provides 8 ways per core; a single core may be
	// allocated between 2 and 16 ways (represented: 256 KB – 4 MB).
	L3BytesPerCore = RepL3BytesPerCore / MemScale
	L3WaysPerCore  = 8
	MinWays        = 2
	MaxWays        = 16
	BaseWays       = 8

	// Access latencies in core cycles at any frequency (on-chip SRAM
	// latencies scale with the clock).
	L1LatencyCycles = 3
	L2LatencyCycles = 12
	L3LatencyCycles = 30

	// Branch misprediction pipeline refill penalty in cycles
	// (Pentium M-class front end).
	BranchPenaltyCycles = 15
)

// DRAM model (Table I): 100 ns base latency, contention queue model,
// 5 GB/s of bandwidth per core.
const (
	DRAMLatencyNs    = 100.0
	DRAMBWBytesPerNs = 5.0 // 5 GB/s = 5 bytes/ns per core
)

// DRAMServiceNs is the minimum spacing between consecutive DRAM line
// transfers for one core under the per-core bandwidth limit.
const DRAMServiceNs = BlockBytes / DRAMBWBytesPerNs // 12.8 ns

// ModelMemLatencyNs is the L_mem constant the online performance models
// multiply leading-miss counts by (Eq. 2): the DRAM latency plus the LLC
// lookup that precedes it at the baseline clock. Queueing delay is not
// modelled — that residual is part of the model error the paper studies.
const ModelMemLatencyNs = DRAMLatencyNs + L3LatencyCycles/FBaseGHz

// Resource manager constants (Sections III-E and IV).
const (
	// IntervalInstructions is the RM invocation granularity: the RM runs
	// on a core every time that core retires this many instructions.
	IntervalInstructions = 100_000_000

	// DVFSSwitchTimeNs and DVFSSwitchEnergyJ are the cost of one
	// voltage/frequency transition (Samsung Exynos 4210 numbers [17]).
	DVFSSwitchTimeNs     = 15_000.0          // 15 µs
	DVFSSwitchEnergyJ    = 3e-6              // 3 µJ
	ResizeDrainFactor    = 1.0               // pipeline drain ≈ ROB/IPC cycles
	QoSAlpha             = 1.0               // QoS relaxation parameter α (fixed to 1)
	LongestAppInstrPaper = 4_146_000_000_000 // 4146 B instructions (Sec. IV-D)
)

// RMInstructionOverhead returns the measured instruction count of one RM
// invocation for a system with n cores (Section III-E: 51K, 73K and 100K
// for 2, 4 and 8 cores). Other core counts interpolate linearly.
func RMInstructionOverhead(n int) int {
	switch {
	case n <= 2:
		return 51_000
	case n == 4:
		return 73_000
	case n >= 8:
		return 100_000
	case n < 4: // n == 3
		return 62_000
	default: // 5..7
		return 73_000 + (n-4)*(100_000-73_000)/4
	}
}

// PrevRMInstructionOverhead is the corresponding overhead of the prior-art
// RM [8] (18K, 40K, 67K), used when simulating RM1/RM2.
func PrevRMInstructionOverhead(n int) int {
	switch {
	case n <= 2:
		return 18_000
	case n == 4:
		return 40_000
	case n >= 8:
		return 67_000
	case n < 4:
		return 29_000
	default:
		return 40_000 + (n-4)*(67_000-40_000)/4
	}
}

// Setting is one point of the per-core configuration space the RM
// searches: a core size, a DVFS grid index and an LLC way allocation.
type Setting struct {
	Core CoreSize
	Freq int // index into the DVFS grid; FreqGHz(Freq) gives GHz
	Ways int // LLC ways allocated to this core, MinWays..MaxWays
}

// Baseline is the fixed reference setting of Section II: a mid-range core
// (M), the base 2 GHz VF point, and an even LLC distribution (8 ways).
func Baseline() Setting {
	return Setting{Core: SizeM, Freq: BaseFreqIdx, Ways: BaseWays}
}

// Valid reports whether s lies inside the Table I configuration space.
func (s Setting) Valid() bool {
	return s.Core.Valid() && s.Freq >= 0 && s.Freq < NumFreqs &&
		s.Ways >= MinWays && s.Ways <= MaxWays
}

// FGHz is a convenience accessor for the setting's frequency in GHz.
func (s Setting) FGHz() float64 { return FreqGHz(s.Freq) }

// String formats the setting the way the paper's figures label them,
// e.g. "M/2.00GHz/8w".
func (s Setting) String() string {
	return fmt.Sprintf("%s/%.2fGHz/%dw", s.Core, s.FGHz(), s.Ways)
}

// TotalWays returns the associativity A of the shared LLC for an n-core
// system (8 ways per core, Table I); the global optimisation distributes
// exactly A ways.
func TotalWays(n int) int { return L3WaysPerCore * n }
