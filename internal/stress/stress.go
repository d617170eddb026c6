// Package stress implements the paper's future-work direction (§6, building
// on Laguna & Gopalakrishnan's Bayesian-optimization input expansion [18]):
// searching a kernel's input space for values that trigger floating-point
// exceptions, with the GPU-FPX detector "looking inside the kernel" rather
// than only observing outputs — the symbiosis the paper proposes.
//
// The search is a deterministic two-phase strategy: a coverage phase that
// samples magnitude bands of the floating-point range (including the
// boundary regions where overflow, underflow and cancellation live), then
// an exploitation phase that narrows around the most exception-productive
// band — a lightweight stand-in for the surrogate-model optimizer of [18].
package stress

import (
	"fmt"
	"math"
	"sort"

	"gpufpx/internal/cc"
	"gpufpx/internal/fpval"
	"gpufpx/internal/fpx"
	"gpufpx/pkg/gpufpx"
)

// Target is a kernel under stress test: a compiled IR definition taking a
// single input array and an output array, plus the launch shape.
type Target struct {
	// Def must have exactly two parameters: the input PtrF32/PtrF64 array
	// and an output pointer of the same width.
	Def *cc.KernelDef
	// N is the number of input elements (and launched threads).
	N int
	// Opts are the compiler flags to test under.
	Opts cc.Options
	// Tool selects the watching instrumentation: "detector" (default, the
	// paper's exception search) or "shadow" (search for precision-loss
	// inputs — significance loss and cancellation that fire no IEEE
	// exception at all).
	Tool string
}

// Config tunes the search.
type Config struct {
	// Rounds is the total number of input sets tried. Half explore
	// magnitude bands, half exploit the best band found.
	Rounds int
	// Seed makes the search deterministic.
	Seed uint64
}

// DefaultConfig returns a small, deterministic search.
func DefaultConfig() Config { return Config{Rounds: 32, Seed: 0x5DEECE66D} }

// Subjects returns the built-in stress subjects — small kernels whose input
// spaces hide the classic exception triggers (reciprocal square root,
// self-division, exponential overflow, vector normalization).
func Subjects() map[string]*cc.KernelDef {
	in := func() cc.Expr { return cc.At("in", cc.Gid()) }
	mk := func(name string, e cc.Expr) *cc.KernelDef {
		return &cc.KernelDef{
			Name:       name + "_kernel",
			SourceFile: name + ".cu",
			Params: []cc.Param{
				{Name: "in", Kind: cc.PtrF32},
				{Name: "out", Kind: cc.PtrF32},
			},
			Body: []cc.Stmt{cc.Store("out", cc.Gid(), e)},
		}
	}
	return map[string]*cc.KernelDef{
		"rsqrt": mk("rsqrt", cc.RsqrtE(in())),
		"div":   mk("div", cc.DivE(cc.F(1), cc.MulE(in(), in()))),
		"exp":   mk("exp", cc.ExpE(cc.MulE(in(), in()))),
		"norm":  mk("norm", cc.DivE(in(), cc.SqrtE(cc.FMA(in(), in(), cc.F(0))))),
	}
}

// Finding is one exception-triggering input region.
type Finding struct {
	// Band is the magnitude band (power-of-ten exponent) of the inputs.
	Band int
	// Inputs is the concrete input set that triggered the exceptions.
	Inputs []float64
	// Records are the deduplicated detector records for this input set
	// (detector targets only).
	Records []fpx.Record
	// Shadow are the precision findings for this input set (shadow targets
	// only).
	Shadow []fpx.Finding
	// Severe counts NaN/INF/DIV0 records — or, for shadow targets,
	// cancellation and divergence findings.
	Severe int
}

// Result summarizes a search.
type Result struct {
	// Findings, most severe first.
	Findings []Finding
	// TriedRounds is the number of input sets evaluated.
	TriedRounds int
	// TotalUniqueRecords counts distinct (site, exception, format)
	// triplets across all rounds.
	TotalUniqueRecords int
}

// Search runs the two-phase input search against the target.
func Search(t *Target, cfg Config) (*Result, error) {
	if cfg.Rounds <= 0 {
		cfg.Rounds = DefaultConfig().Rounds
	}
	if len(t.Def.Params) != 2 {
		return nil, fmt.Errorf("stress: target kernel must take (in, out) pointer parameters")
	}
	switch t.Tool {
	case "", "detector", "shadow":
	default:
		return nil, fmt.Errorf("stress: unknown tool %q (want detector or shadow)", t.Tool)
	}
	inElem, ok := t.Def.Params[0].Kind.Elem()
	if !ok {
		return nil, fmt.Errorf("stress: first parameter must be a pointer")
	}

	rng := cfg.Seed
	next := func() uint64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545F4914F6CDD1D
	}

	// Magnitude bands: 10^band. The interesting edges of binary32 live
	// around ±38 (overflow/underflow) and the subnormal range below -38;
	// binary64 adds ±308.
	bands := []int{-45, -40, -38, -30, -20, -10, -3, 0, 3, 10, 20, 30, 37, 38}
	if inElem == cc.F64 {
		bands = append(bands, -320, -308, -300, 100, 200, 307, 308)
	}

	res := &Result{}
	seen := map[fpx.Key]bool{}
	bandScore := map[int]int{}

	evaluate := func(band int) (Finding, error) {
		inputs := make([]float64, t.N)
		for i := range inputs {
			mag := math.Pow(10, float64(band))
			u := float64(next()>>11) / float64(1<<53) // [0,1)
			v := (u*2 - 1) * mag                      // symmetric around 0
			if i%7 == 0 {
				v = 0 // exact zeros are prime exception triggers
			}
			inputs[i] = v
		}
		recs, finds, err := runOnce(t, inputs)
		if err != nil {
			return Finding{}, err
		}
		f := Finding{Band: band, Inputs: inputs, Records: recs, Shadow: finds}
		for _, r := range recs {
			if r.Exc != fpval.ExcSub {
				f.Severe++
			}
		}
		for _, sf := range finds {
			if sf.Kind != fpx.KindSignificanceLoss {
				f.Severe++
			}
		}
		return f, nil
	}

	seenSha := map[string]bool{}
	record := func(f Finding) {
		res.TriedRounds++
		for _, r := range f.Records {
			k := fpx.EncodeID(r.Exc, uint16(r.PC), r.Fp)
			seen[k] = true
		}
		for _, sf := range f.Shadow {
			seenSha[fmt.Sprintf("%d/%d", sf.Kind, sf.PC)] = true
		}
		bandScore[f.Band] += len(f.Records) + len(f.Shadow)
		if len(f.Records) > 0 || len(f.Shadow) > 0 {
			res.Findings = append(res.Findings, f)
		}
	}

	// Phase 1: coverage over the bands.
	explore := cfg.Rounds / 2
	for i := 0; i < explore; i++ {
		f, err := evaluate(bands[i%len(bands)])
		if err != nil {
			return nil, err
		}
		record(f)
	}
	// Phase 2: exploit the most productive band (and its neighbours).
	best, bestScore := bands[0], -1
	for b, s := range bandScore {
		if s > bestScore || (s == bestScore && b < best) {
			best, bestScore = b, s
		}
	}
	for i := 0; i < cfg.Rounds-explore; i++ {
		f, err := evaluate(best + i%3 - 1)
		if err != nil {
			return nil, err
		}
		record(f)
	}

	res.TotalUniqueRecords = len(seen) + len(seenSha)
	sort.SliceStable(res.Findings, func(i, j int) bool {
		if res.Findings[i].Severe != res.Findings[j].Severe {
			return res.Findings[i].Severe > res.Findings[j].Severe
		}
		return len(res.Findings[i].Records)+len(res.Findings[i].Shadow) >
			len(res.Findings[j].Records)+len(res.Findings[j].Shadow)
	})
	return res, nil
}

// runOnce compiles (once per call; the kernel is small) and runs the target
// on one input set under the watching tool. Tool construction goes through
// the public session facade; the bespoke input staging drives the live
// context via the Start/Finish escape hatch.
func runOnce(t *Target, inputs []float64) ([]fpx.Record, []fpx.Finding, error) {
	k, err := cc.Compile(t.Def, t.Opts)
	if err != nil {
		return nil, nil, err
	}
	var finds []fpx.Finding
	tool := gpufpx.Detector(gpufpx.DefaultDetectorConfig())
	if t.Tool == "shadow" {
		cfg := gpufpx.DefaultShadowConfig()
		cfg.OnFinding = func(f fpx.Finding) { finds = append(finds, f) }
		tool = gpufpx.Shadow(cfg)
	}
	a := gpufpx.New(gpufpx.WithTool(tool)).Start()
	ctx := a.Ctx
	inElem, _ := t.Def.Params[0].Kind.Elem()
	var in, out uint32
	if inElem == cc.F64 {
		in = ctx.Dev.Alloc(uint32(8 * t.N))
		for i, v := range inputs {
			ctx.Dev.Store64(in+uint32(8*i), math.Float64bits(v))
		}
		out = ctx.Dev.Alloc(uint32(8 * t.N))
	} else {
		in = ctx.Dev.Alloc(uint32(4 * t.N))
		for i, v := range inputs {
			ctx.Dev.Store32(in+uint32(4*i), math.Float32bits(float32(v)))
		}
		out = ctx.Dev.Alloc(uint32(4 * t.N))
	}
	block := 32
	grid := (t.N + block - 1) / block
	if err := ctx.Launch(k, grid, block, in, out); err != nil {
		return nil, nil, err
	}
	return a.Finish().Records, finds, nil
}
