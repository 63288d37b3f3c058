// Package blbp is the public API of the BLBP reproduction: the Bit-Level
// Perceptron-Based Indirect Branch Predictor of Garza, Mirbagher-Ajorpaz,
// Khan, and Jiménez (ISCA 2019), together with the baselines it is
// evaluated against (BTB, VPC, ITTAGE), a CBP-style trace-driven simulation
// engine, and a synthetic workload suite standing in for the paper's
// SPEC/CBP-5 traces.
//
// Quick start:
//
//	spec := blbp.Workloads(400_000)[0]     // a workload from the 88-entry suite
//	tr := spec.Build()                      // deterministic branch trace
//	res, err := blbp.Simulate(tr, blbp.NewBLBP(blbp.DefaultBLBPConfig()))
//	fmt.Printf("BLBP MPKI: %.3f\n", res.IndirectMPKI())
//
// See the examples/ directory for complete programs and cmd/experiments for
// the drivers that regenerate every table and figure of the paper.
package blbp

import (
	"io"

	"blbp/internal/btb"
	"blbp/internal/combined"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/ittage"
	"blbp/internal/predictor"
	"blbp/internal/sim"
	"blbp/internal/trace"
	"blbp/internal/vpc"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

// Trace model -------------------------------------------------------------

// BranchType classifies a control-flow instruction.
type BranchType = trace.BranchType

// Branch type values.
const (
	CondDirect   = trace.CondDirect
	UncondDirect = trace.UncondDirect
	DirectCall   = trace.DirectCall
	IndirectJump = trace.IndirectJump
	IndirectCall = trace.IndirectCall
	Return       = trace.Return
)

// Record is one executed branch in a trace.
type Record = trace.Record

// Trace is an in-memory branch trace, stored columnar; iterate it with Len
// and Record(i).
type Trace = trace.Columns

// TraceStats summarizes a trace's branch population (branch mix,
// polymorphism, target-count distribution).
type TraceStats = trace.Stats

// AnalyzeTrace computes statistics over a trace.
func AnalyzeTrace(t *Trace) *TraceStats { return trace.Analyze(t) }

// Predictors ---------------------------------------------------------------

// IndirectPredictor is the interface every indirect target predictor
// implements; see the package documentation of internal/predictor for the
// engine's call contract.
type IndirectPredictor = predictor.Indirect

// ConditionalPredictor is a taken/not-taken predictor.
type ConditionalPredictor = cond.Predictor

// BLBPConfig parameterizes the BLBP predictor.
type BLBPConfig = core.Config

// DefaultBLBPConfig returns the paper's BLBP configuration (Table 2).
func DefaultBLBPConfig() BLBPConfig { return core.DefaultConfig() }

// NewBLBP constructs a BLBP predictor.
func NewBLBP(cfg BLBPConfig) *core.BLBP { return core.New(cfg) }

// ITTAGEConfig parameterizes the ITTAGE baseline.
type ITTAGEConfig = ittage.Config

// DefaultITTAGEConfig returns the ~64 KB ITTAGE baseline configuration.
func DefaultITTAGEConfig() ITTAGEConfig { return ittage.DefaultConfig() }

// NewITTAGE constructs an ITTAGE predictor.
func NewITTAGE(cfg ITTAGEConfig) *ittage.ITTAGE { return ittage.New(cfg) }

// BTBConfig parameterizes a branch target buffer.
type BTBConfig = btb.Config

// DefaultBTBConfig returns the paper's 32K-entry baseline BTB.
func DefaultBTBConfig() BTBConfig { return btb.Default32K() }

// NewBTBPredictor constructs the baseline last-taken BTB indirect
// predictor.
func NewBTBPredictor(cfg BTBConfig) *btb.Indirect { return btb.NewIndirect(cfg) }

// VPCConfig parameterizes the VPC predictor.
type VPCConfig = vpc.Config

// DefaultVPCConfig returns the paper's VPC setup (32K BTB, MaxIter 12).
func DefaultVPCConfig() VPCConfig { return vpc.DefaultConfig() }

// NewVPC constructs a VPC predictor over the given shared conditional
// predictor. When simulating, pass the same hp as the engine's conditional
// predictor (see SimulateWith) — sharing one predictor is VPC's defining
// property.
func NewVPC(cfg VPCConfig, hp *cond.HashedPerceptron) *vpc.VPC { return vpc.New(cfg, hp) }

// NewHashedPerceptron constructs the hashed perceptron conditional
// predictor the harness uses.
func NewHashedPerceptron() *cond.HashedPerceptron {
	return cond.NewHashedPerceptron(cond.DefaultHPConfig())
}

// NewTAGE constructs the conditional TAGE predictor (pairs with ITTAGE to
// form the COTTAGE configuration of the paper's related work).
func NewTAGE() *cond.TAGE { return cond.NewTAGE(cond.DefaultTAGEConfig()) }

// NewCombined constructs the paper's §6 future-work consolidation: one BLBP
// structure predicting both conditional directions and indirect targets.
// Use the returned predictor as the engine's conditional predictor and its
// Indirect() view as the indirect predictor of the same pass:
//
//	p := blbp.NewCombined(blbp.DefaultBLBPConfig())
//	res, err := blbp.SimulateWith(tr, p, []blbp.IndirectPredictor{p.Indirect()}, blbp.SimOptions{})
func NewCombined(cfg BLBPConfig) *combined.Predictor { return combined.New(cfg) }

// Simulation ---------------------------------------------------------------

// Result accumulates one predictor's counts over one trace; its
// IndirectMPKI method reports the paper's headline metric.
type Result = sim.Result

// SimOptions tunes engine structures not under study.
type SimOptions = sim.Options

// Simulate runs the indirect predictors over the trace in one pass, using a
// fresh hashed perceptron for conditional branches, and returns one Result
// per predictor in input order.
//
//blbp:hot
func Simulate(tr *Trace, preds ...IndirectPredictor) ([]Result, error) {
	//blbp:allow(hotalloc) conditional predictor boxed once at run setup, not per branch
	return sim.Run(tr, NewHashedPerceptron(), preds, sim.Options{})
}

// SimulateWith is Simulate with an explicit conditional predictor and
// options (required for VPC, which must share the engine's conditional
// predictor).
//
//blbp:hot
func SimulateWith(tr *Trace, cp ConditionalPredictor, preds []IndirectPredictor, opts SimOptions) ([]Result, error) {
	return sim.Run(tr, cp, preds, opts)
}

// Workloads ----------------------------------------------------------------

// WorkloadSpec names one fully-parameterized synthetic workload.
type WorkloadSpec = workload.Spec

// Workloads returns the paper-mirroring 88-workload suite; base scales
// trace lengths (SHORT = base, LONG = 2x, SPEC = 1.5x; 0 applies the
// 400k-instruction default).
func Workloads(base int64) []WorkloadSpec { return wspec.Suite(base) }

// HoldoutWorkloads returns the 12-workload cross-validation suite (the
// paper's CBP-4 analog).
func HoldoutWorkloads(base int64) []WorkloadSpec { return wspec.SuiteHoldout(base) }

// Workload generator parameter types, for building custom workloads.
type (
	// InterpreterParams models bytecode-interpreter dispatch.
	InterpreterParams = workload.InterpreterParams
	// VDispatchParams models virtual-method dispatch over object arrays.
	VDispatchParams = workload.VDispatchParams
	// SwitcherParams models parser/switch-statement dispatch.
	SwitcherParams = workload.SwitcherParams
	// CallbacksParams models event loops over function-pointer tables.
	CallbacksParams = workload.CallbacksParams
	// MonoParams models monomorphic call-site populations.
	MonoParams = workload.MonoParams
	// RecursiveParams models recursion-heavy code with RAS-overflow depths.
	RecursiveParams = workload.RecursiveParams
)

// Custom workload constructors.
var (
	// NewInterpreterWorkload builds an interpreter workload spec.
	NewInterpreterWorkload = workload.InterpreterSpec
	// NewVDispatchWorkload builds a virtual-dispatch workload spec.
	NewVDispatchWorkload = workload.VDispatchSpec
	// NewSwitcherWorkload builds a switch/parser workload spec.
	NewSwitcherWorkload = workload.SwitcherSpec
	// NewCallbacksWorkload builds an event-loop workload spec.
	NewCallbacksWorkload = workload.CallbacksSpec
	// NewMonoWorkload builds a monomorphic-calls workload spec.
	NewMonoWorkload = workload.MonoSpec
	// NewRecursiveWorkload builds a recursion-heavy workload spec.
	NewRecursiveWorkload = workload.RecursiveSpec
)

// Trace I/O -----------------------------------------------------------------

// WriteTrace encodes tr as an SPL3 trace file, the format cmd/tracegen
// writes and cmd/blbpsim -trace reads. The header names tr and its
// instruction count; its seed and fingerprint are 0, since a bare trace
// carries no generator identity.
func WriteTrace(w io.Writer, tr *Trace) error {
	return trace.WriteSpillColumns(w, trace.SpillHeader{Name: tr.Name, Instructions: tr.Instructions()}, tr)
}

// ReadTrace decodes an SPL3 trace file, verifying every block's checksum
// and record, and drops its header. A file in another format, such as one
// an older tracegen wrote, fails with trace.ErrBadSpillMagic; running
// tracegen gen again reproduces it in SPL3.
func ReadTrace(r io.Reader) (*Trace, error) {
	_, tr, err := trace.ReadSpillColumns(r)
	return tr, err
}

// NewPredictor constructs a registered standalone indirect predictor by
// name with its default configuration ("blbp", "ittage", "btb", "btb2bit",
// "targetcache", "cascaded"). Predictors that must share or provide the
// engine's conditional predictor ("vpc", "combined") are registered too but
// cannot be built in isolation; see NewVPC and NewCombined.
func NewPredictor(name string) (IndirectPredictor, error) { return predictor.New(name) }

// PredictorNames lists the names accepted by NewPredictor.
func PredictorNames() []string { return predictor.Names() }
