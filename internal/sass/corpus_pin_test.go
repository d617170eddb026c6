package sass_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"gpufpx/internal/cc"
	"gpufpx/internal/cuda"
	"gpufpx/internal/progs"
	"gpufpx/internal/sass"
)

// kernelDigest hashes everything a kernel holds that a consumer can read:
// its name, source file, NumRegs and SharedBytes, the rendered listing
// (Format, then each instruction's String, PC and source location), and
// every field of every operand. Two kernels with one digest are the same
// kernel to every tool and tier.
func kernelDigest(k *sass.Kernel) string {
	h := sha256.New()
	str := func(s string) {
		num(h, uint64(len(s)))
		io.WriteString(h, s)
	}
	str(k.Name)
	str(k.SourceFile)
	num(h, uint64(k.NumRegs))
	num(h, uint64(k.SharedBytes))
	str(sass.Format(k))
	num(h, uint64(len(k.Instrs)))
	for i := range k.Instrs {
		in := &k.Instrs[i]
		str(in.String())
		num(h, uint64(in.PC))
		str(in.Loc.File)
		num(h, uint64(in.Loc.Line))
		num(h, uint64(len(in.Operands)))
		for _, o := range in.Operands {
			num(h, uint64(o.Type))
			num(h, uint64(o.Reg))
			flag(h, o.Neg)
			flag(h, o.Abs)
			num(h, math.Float64bits(o.Imm))
			str(o.Text)
			num(h, uint64(int64(o.Bank)))
			num(h, uint64(int64(o.Off)))
			num(h, uint64(o.Pred))
			flag(h, o.NegPred)
			num(h, uint64(o.IVal))
			num(h, uint64(o.SR))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func num(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func flag(h hash.Hash, v bool) {
	if v {
		num(h, 1)
	} else {
		num(h, 0)
	}
}

// launchRecorder records every kernel launched on its context.
type launchRecorder struct{ kernels map[*sass.Kernel]bool }

func (r *launchRecorder) OnLaunch(ev *cuda.LaunchEvent) { r.kernels[ev.Kernel] = true }
func (r *launchRecorder) OnExit()                       {}

// corpusKernels runs every corpus and precision-suite program, and each
// repaired variant, under opts with no tool attached, and returns the
// kernels they launch.
func corpusKernels(t *testing.T, opts cc.Options) map[*sass.Kernel]bool {
	t.Helper()
	rec := &launchRecorder{kernels: map[*sass.Kernel]bool{}}
	run := func(name string, fn func(*progs.RunContext) error) {
		ctx := cuda.NewContext()
		ctx.Intercept(rec)
		if err := fn(progs.NewRunContext(ctx, opts)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, p := range append(progs.All(), progs.Precision()...) {
		run(p.Name, p.Run)
		if p.FixedRun != nil {
			run(p.Name+" (fixed)", p.FixedRun)
		}
	}
	return rec.kernels
}

// TestCompiledCorpusPinned holds every compiled corpus kernel, under the
// precise and the fast-math compiler, to the digest recorded in
// testdata/corpus_kernels.txt, and the listing of each, reparsed, to one
// digest there. The kernel representation may change how it stores a
// kernel; it may not change what a kernel holds.
func TestCompiledCorpusPinned(t *testing.T) {
	var got []string
	parsed := sha256.New()
	nparsed := 0
	for _, cfg := range []struct {
		name string
		opts cc.Options
	}{
		{"precise", cc.Options{}},
		{"fastmath", cc.Options{FastMath: true}},
	} {
		var lines, reparsed []string
		for k := range corpusKernels(t, cfg.opts) {
			checkCompact(t, k)
			lines = append(lines, cfg.name+"\t"+k.Name+"\t"+kernelDigest(k))
			p, err := sass.Parse(k.Name, sass.Format(k))
			if err != nil {
				t.Fatalf("%s %s: listing does not reparse: %v", cfg.name, k.Name, err)
			}
			checkCompact(t, p)
			reparsed = append(reparsed, kernelDigest(p))
		}
		sort.Strings(lines)
		sort.Strings(reparsed)
		got = append(got, lines...)
		for _, d := range reparsed {
			io.WriteString(parsed, d)
		}
		nparsed += len(reparsed)
	}
	got = append(got, fmt.Sprintf("reparsed\t%d listings\t%x", nparsed, parsed.Sum(nil)))

	want := readLines(t, filepath.Join("testdata", "corpus_kernels.txt"))
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	wantSet := map[string]bool{}
	for _, l := range want {
		wantSet[l] = true
	}
	for _, l := range got {
		if !wantSet[l] {
			t.Errorf("not pinned: %s", l)
		}
	}
	t.Fatalf("compiled corpus digests changed (%d lines, %d pinned)", len(got), len(want))
}

// TestParsedListingsPinned holds the kernels Parse builds from the
// FuzzParse seeds and from the FuzzRun corpus listings of pkg/gpufpx to one
// recorded digest.
func TestParsedListingsPinned(t *testing.T) {
	srcs := append([]string(nil), sass.ParseSeeds...)
	files, err := filepath.Glob(filepath.Join("..", "..", "pkg", "gpufpx", "testdata", "fuzz", "FuzzRun", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("FuzzRun corpus: %v (%d files)", err, len(files))
	}
	sort.Strings(files)
	for _, f := range files {
		lines := readLines(t, f)
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
			t.Fatalf("%s: not a one-string fuzz input", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		srcs = append(srcs, s)
	}
	h := sha256.New()
	n := 0
	for _, src := range srcs {
		k, err := sass.Parse("pin", src)
		if err != nil {
			io.WriteString(h, "error\n")
			continue
		}
		n++
		checkCompact(t, k)
		io.WriteString(h, kernelDigest(k))
	}
	const want = "18/24 960d8ace55257cc1df3b6fbea3b667d60bc1504bda21221b95de226fd19cdff2"
	if got := fmt.Sprintf("%d/%d %x", n, len(srcs), h.Sum(nil)); got != want {
		t.Fatalf("parsed listings digest %s, want %s", got, want)
	}
}

// TestRepresentationSizes pins the sizes a cached kernel pays per operand
// and per instruction.
func TestRepresentationSizes(t *testing.T) {
	if n := unsafe.Sizeof(sass.Operand{}); n > 56 {
		t.Errorf("sass.Operand is %d bytes, want at most 56", n)
	}
	if n := unsafe.Sizeof(sass.Instr{}); n > 120 {
		t.Errorf("sass.Instr is %d bytes, want at most 120", n)
	}
}

// TestOperandAppendStaysPrivate appends to one instruction's operands in a
// finalized kernel and checks that the next instruction's are untouched.
func TestOperandAppendStaysPrivate(t *testing.T) {
	k := sass.MustParse("append", "FADD R1, R2, R3 ;\nFMUL R4, R5, R6 ;\nEXIT ;")
	before := k.Instrs[1].String()
	grown := append(k.Instrs[0].Operands, sass.Reg(9))
	if got := k.Instrs[1].String(); got != before || len(grown) != 4 {
		t.Fatalf("append to instr 0's operands changed instr 1: %q -> %q", before, got)
	}
}

// checkCompact checks that a finalized kernel holds its instructions in an
// exact-size array and all its operands in one array, each instruction's
// cut without spare capacity and right after the previous instruction's.
func checkCompact(t *testing.T, k *sass.Kernel) {
	t.Helper()
	if len(k.Instrs) != cap(k.Instrs) {
		t.Fatalf("%s: %d instructions in an array of %d", k.Name, len(k.Instrs), cap(k.Instrs))
	}
	var next uintptr
	for pc := range k.Instrs {
		ops := k.Instrs[pc].Operands
		if len(ops) != cap(ops) {
			t.Fatalf("%s pc %d: %d operands with capacity %d", k.Name, pc, len(ops), cap(ops))
		}
		if len(ops) == 0 {
			continue
		}
		at := uintptr(unsafe.Pointer(&ops[0]))
		if next != 0 && at != next {
			t.Fatalf("%s pc %d: operands do not follow the previous instruction's", k.Name, pc)
		}
		next = at + uintptr(len(ops))*unsafe.Sizeof(sass.Operand{})
	}
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
