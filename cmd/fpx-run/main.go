// fpx-run executes one corpus program (or a SASS file) under the GPU-FPX
// detector and/or analyzer and prints the exception reports — the
// LD_PRELOAD workflow of the paper:
//
//	fpx-run -prog myocyte                     # detector report
//	fpx-run -prog GRAMSCHM -tool analyzer     # exception-flow analysis
//	fpx-run -prog LavaMD -tool shadow         # shadow-precision sanitizer
//	fpx-run -prog myocyte -fastmath           # recompiled with fast math
//	fpx-run -prog CuMF-Movielens -k 256       # sampled instrumentation
//	fpx-run -sass kernel.sass -grid 1 -block 32
//	fpx-run -list                             # corpus inventory
//
// fpx-run is a thin client of the public session API: every flag maps onto
// a gpufpx option, and the reports are the facade's versioned wire types.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"gpufpx/pkg/gpufpx"
)

func main() {
	var (
		progName = flag.String("prog", "", "corpus program to run (see -list)")
		sassFile = flag.String("sass", "", "run a SASS listing file instead of a corpus program")
		grid     = flag.Int("grid", 1, "grid dimension for -sass")
		block    = flag.Int("block", 32, "block dimension for -sass")
		tool     = flag.String("tool", "", "instrumentation tool: detector (default), analyzer, shadow, binfpe, memcheck or plain")
		fastmath = flag.Bool("fastmath", false, "compile the program with --use_fast_math")
		turing   = flag.Bool("turing", false, "use the Turing division expansion (default Ampere)")
		demote   = flag.Bool("demote-f64", false, "compile FP64 arithmetic as FP32")
		fixed    = flag.Bool("fixed", false, "run the repaired variant, when the program has one")
		freq     = flag.Int("k", 0, "freq-redn-factor: instrument 1 in k invocations (0 = all)")
		kernels  = flag.String("kernels", "", "comma-separated kernel whitelist (Algorithm 3's user-specified list)")
		execFlag = flag.String("exec", "", "executor dispatch: interp (reference interpreter), lowered (direct-threaded programs) or fused (superinstructions); reports are identical in all three")
		jsonOut  = flag.Bool("json", false, "emit the final report as JSON on stdout")
		list     = flag.Bool("list", false, "list the corpus programs and exit")
	)
	flag.Parse()

	if *list {
		for _, suite := range gpufpx.Suites() {
			fmt.Printf("%s:\n", suite)
			for _, p := range gpufpx.ProgramsBySuite(suite) {
				marks := ""
				if p.Table7 {
					marks += " [table7]"
				}
				if p.Meaningless {
					marks += " [footnote8]"
				}
				fmt.Printf("  %s%s\n", p.Name, marks)
			}
		}
		fmt.Println("precision (shadow suite, outside the paper corpus):")
		for _, p := range gpufpx.PrecisionPrograms() {
			fmt.Printf("  %s\n", p.Name)
		}
		return
	}

	compile := gpufpx.CompileOptions{FastMath: *fastmath, DemoteF64: *demote}
	if *turing {
		compile.Arch = gpufpx.ArchTuring
	}

	opts := []gpufpx.Option{gpufpx.WithCompile(compile), gpufpx.WithFreq(*freq)}
	if *execFlag != "" {
		mode, err := gpufpx.ParseExecMode(*execFlag)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, gpufpx.WithExec(mode))
	}
	if *kernels != "" {
		opts = append(opts, gpufpx.WithKernelWhitelist(strings.Split(*kernels, ",")...))
	}
	t, err := gpufpx.ParseTool(*tool)
	if err != nil {
		fatal(err)
	}
	opts = append(opts, gpufpx.WithTool(t))
	if !*jsonOut {
		opts = append(opts, gpufpx.WithOutput(os.Stdout), gpufpx.WithVerbose(true))
	}

	var src gpufpx.Source
	switch {
	case *sassFile != "":
		text, err := os.ReadFile(*sassFile)
		if err != nil {
			fatal(err)
		}
		src = gpufpx.SASSText(*sassFile, string(text), *grid, *block)
	case *progName != "" && *fixed:
		src = gpufpx.FixedProgram(*progName)
	case *progName != "":
		src = gpufpx.Program(*progName)
	default:
		flag.Usage()
		os.Exit(2)
	}

	rep, err := gpufpx.New(opts...).Run(context.Background(), src)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		if rep.Detector == nil && rep.Analyzer == nil && rep.Shadow == nil {
			fatal(fmt.Errorf("-json is not supported for tool %s", rep.Tool))
		}
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("total simulated cycles: %d\n", rep.Cycles)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpx-run:", err)
	os.Exit(1)
}
