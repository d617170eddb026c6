// fpx-diff compares two GPU-FPX JSON reports — a before-fix run and an
// after-fix run — and reports which exception sites were fixed, which
// persist, and which the change introduced. It is the command-line form of
// the paper's §5.2/§5.3 debugging loop and is built to gate CI: the exit
// status is 0 only when the after run is clean (no new records and no
// persisting severe ones).
//
// Usage:
//
//	fpx-run -prog gmres -json > before.json
//	# apply the fix, rebuild
//	fpx-run -prog gmres -json > after.json
//	fpx-diff before.json after.json
//
//	fpx-diff -tool analyzer before.json after.json   # diff analyzer reports
//	fpx-diff -tool shadow before.json after.json     # diff shadow reports
package main

import (
	"flag"
	"fmt"
	"os"

	"gpufpx/pkg/gpufpx"
)

func main() {
	tool := flag.String("tool", "", "report kind: detector (default), analyzer or shadow")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fpx-diff [-tool detector|analyzer|shadow] before.json after.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	kind := *tool
	if kind == "" {
		kind = "detector"
	}

	before, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer before.Close()
	after, err := os.Open(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	defer after.Close()

	switch kind {
	case "analyzer":
		b, err := gpufpx.LoadAnalyzerReport(before)
		if err != nil {
			fatal(err)
		}
		a, err := gpufpx.LoadAnalyzerReport(after)
		if err != nil {
			fatal(err)
		}
		d := gpufpx.CompareAnalyzerReports(b, a)
		d.WriteText(os.Stdout)
		if !d.Quiet() {
			os.Exit(1)
		}
	case "shadow":
		b, err := gpufpx.LoadShadowReport(before)
		if err != nil {
			fatal(err)
		}
		a, err := gpufpx.LoadShadowReport(after)
		if err != nil {
			fatal(err)
		}
		d := gpufpx.CompareShadowReports(b, a)
		d.WriteText(os.Stdout)
		if !d.Quiet() {
			os.Exit(1)
		}
	case "detector":
		b, err := gpufpx.LoadDetectorReport(before)
		if err != nil {
			fatal(err)
		}
		a, err := gpufpx.LoadDetectorReport(after)
		if err != nil {
			fatal(err)
		}
		d := gpufpx.CompareDetectorReports(b, a)
		d.WriteText(os.Stdout)
		if !d.Clean() {
			os.Exit(1)
		}
	default:
		fatal(fmt.Errorf("unknown -tool %q (want detector, analyzer or shadow)", kind))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpx-diff:", err)
	os.Exit(2)
}
