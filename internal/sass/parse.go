package sass

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse assembles SASS listing text into a Kernel. The accepted syntax is
// the compute-capability 7.x–8.x listing style produced by Instr.String:
//
//	// comment
//	.loc kernel.cu 776        (tags following instructions with a source line)
//	L_top:                    (label)
//	@!P0 FADD R6, R1, R6 ;
//	MUFU.RCP R4, R5 ;
//	FSETP.LT.AND P0, PT, R3, c[0x0][0x160], PT ;
//	LDG.E R2, [R4+0x10] ;
//	BRA L_top ;
//	EXIT ;
//
// Floating-point constants on MUFU instructions parse as GENERIC operands
// (the analyzer recognizes them by text); on all other opcodes they are
// IMM_DOUBLE, mirroring the operand typing in Listing 2 of the paper.
func Parse(name, src string) (*Kernel, error) {
	lines := strings.Split(src, "\n")
	// An instruction takes at least a line, and each of its operands but
	// the first follows a comma, so neither scratch array below grows;
	// Finalize moves what they hold into exact-size arrays.
	k := &Kernel{Name: name, Instrs: make([]Instr, 0, len(lines))}
	ops := make([]Operand, 0, len(lines)+strings.Count(src, ","))
	labels := make(map[string]int)
	loc := SourceLoc{}
	for ln, raw := range lines {
		line := raw
		if idx := strings.Index(line, "//"); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".loc ") {
			fields := strings.Fields(line)
			if len(fields) != 3 {
				return nil, fmt.Errorf("sass: line %d: .loc wants file and line", ln+1)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("sass: line %d: bad .loc line number %q", ln+1, fields[2])
			}
			loc = SourceLoc{File: fields[1], Line: n}
			if k.SourceFile == "" {
				k.SourceFile = fields[1]
			}
			continue
		}
		// Labels may share a line with an instruction: "L0: FADD ...".
		for {
			colon := strings.Index(line, ":")
			if colon < 0 || strings.ContainsAny(line[:colon], " \t,[") {
				break
			}
			label := line[:colon]
			if _, dup := labels[label]; dup {
				return nil, fmt.Errorf("sass: line %d: duplicate label %q", ln+1, label)
			}
			labels[label] = len(k.Instrs)
			line = strings.TrimSpace(line[colon+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		in, err := parseInstr(line, &ops)
		if err != nil {
			return nil, fmt.Errorf("sass: line %d: %v", ln+1, err)
		}
		in.Loc = loc
		k.Instrs = append(k.Instrs, in)
	}
	if err := k.Finalize(labels); err != nil {
		return nil, err
	}
	return k, nil
}

// MustParse is Parse for hand-written kernels in tests and examples; it
// panics on error.
func MustParse(name, src string) *Kernel {
	k, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return k
}

// parseInstr parses one instruction, appending its operands to ops and
// cutting its Operands from there.
func parseInstr(line string, ops *[]Operand) (Instr, error) {
	line = strings.TrimSuffix(strings.TrimSpace(line), ";")
	line = strings.TrimSpace(line)

	in := Instr{Guard: PT}
	if strings.HasPrefix(line, "@") {
		sp := strings.IndexAny(line, " \t")
		if sp < 0 {
			return in, fmt.Errorf("guard predicate with no instruction: %q", line)
		}
		g := line[1:sp]
		line = strings.TrimSpace(line[sp:])
		if strings.HasPrefix(g, "!") {
			in.GuardNeg = true
			g = g[1:]
		}
		p, err := parsePredName(g)
		if err != nil {
			return in, err
		}
		in.Guard = p
	}

	opText := line
	rest := ""
	if sp := strings.IndexAny(line, " \t"); sp >= 0 {
		opText, rest = line[:sp], strings.TrimSpace(line[sp:])
	}
	opName, modText, hasMods := strings.Cut(opText, ".")
	op, ok := OpByName(opName)
	if !ok {
		return in, fmt.Errorf("unknown opcode %q", opName)
	}
	in.Op = op
	if hasMods {
		in.Mods = strings.Split(modText, ".")
	}

	if rest != "" {
		start := len(*ops)
		for more := true; more; {
			var tok string
			tok, rest, more = cutOperand(rest)
			operand, err := parseOperand(tok, op)
			if err != nil {
				return in, err
			}
			*ops = append(*ops, operand)
		}
		in.Operands = (*ops)[start:len(*ops):len(*ops)]
	}
	return in, nil
}

// cutOperand cuts the first operand, trimmed, off an operand list at the
// first comma that is not inside brackets (c[0x0][0x160] and [R4+0x10]
// contain no commas today, but be safe). found reports whether a comma
// was cut, so that rest holds at least one more operand.
func cutOperand(s string) (tok, rest string, found bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				return strings.TrimSpace(s[:i]), s[i+1:], true
			}
		}
	}
	return strings.TrimSpace(s), "", false
}

func parsePredName(s string) (int, error) {
	if s == "PT" {
		return PT, nil
	}
	if len(s) >= 2 && s[0] == 'P' {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < NumPredRegs-1 {
			return n, nil
		}
	}
	return 0, fmt.Errorf("bad predicate register %q", s)
}

func parseOperand(tok string, op Op) (Operand, error) {
	if tok == "" {
		return Operand{}, fmt.Errorf("empty operand")
	}
	neg := false
	abs := false
	t := tok
	if strings.HasPrefix(t, "!") {
		p, err := parsePredName(t[1:])
		if err != nil {
			return Operand{}, err
		}
		return PredOp(p, true), nil
	}
	if strings.HasPrefix(t, "-") && !isNumberStart(t) {
		neg = true
		t = t[1:]
	}
	if strings.HasPrefix(t, "|") && strings.HasSuffix(t, "|") && len(t) > 2 {
		abs = true
		t = t[1 : len(t)-1]
	}
	switch {
	case t == "RZ":
		return Operand{Type: OperandReg, Reg: RZ, Neg: neg, Abs: abs}, nil
	case t == "PT" || (len(t) >= 2 && t[0] == 'P' && isDigits(t[1:])):
		p, err := parsePredName(t)
		if err != nil {
			return Operand{}, err
		}
		return PredOp(p, false), nil
	case len(t) >= 2 && t[0] == 'R' && isDigits(t[1:]):
		n, _ := strconv.Atoi(t[1:])
		if n < 0 || n > RZ {
			return Operand{}, fmt.Errorf("register out of range: %q", tok)
		}
		return Operand{Type: OperandReg, Reg: n, Neg: neg, Abs: abs}, nil
	case strings.HasPrefix(t, "c["):
		var bank, off int
		if _, err := fmt.Sscanf(t, "c[0x%x][0x%x]", &bank, &off); err != nil {
			return Operand{}, fmt.Errorf("bad cbank operand %q", tok)
		}
		if bank != int(int32(bank)) || off != int(int32(off)) {
			return Operand{}, fmt.Errorf("cbank operand out of range: %q", tok)
		}
		return Operand{Type: OperandCBank, Bank: int32(bank), Off: int32(off), Neg: neg, Abs: abs}, nil
	case strings.HasPrefix(t, "["):
		body := strings.TrimSuffix(strings.TrimPrefix(t, "["), "]")
		regPart := body
		var off int64
		if plus := strings.Index(body, "+"); plus >= 0 {
			regPart = body[:plus]
			v, err := strconv.ParseInt(strings.TrimPrefix(body[plus+1:], "0x"), 16, 64)
			if err != nil {
				return Operand{}, fmt.Errorf("bad memory offset in %q", tok)
			}
			off = v
		}
		if regPart == "RZ" {
			return Mem(RZ, off), nil
		}
		if len(regPart) < 2 || regPart[0] != 'R' || !isDigits(regPart[1:]) {
			return Operand{}, fmt.Errorf("bad memory base register in %q", tok)
		}
		n, _ := strconv.Atoi(regPart[1:])
		return Mem(n, off), nil
	case strings.HasPrefix(t, "SR_"):
		for sr, name := range specialNames {
			if name == t {
				return Special(SpecialReg(sr)), nil
			}
		}
		return Operand{}, fmt.Errorf("unknown special register %q", tok)
	case strings.HasPrefix(t, "0x") || strings.HasPrefix(t, "-0x"):
		v, err := strconv.ParseUint(strings.TrimPrefix(strings.TrimPrefix(t, "-"), "0x"), 16, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("bad integer immediate %q", tok)
		}
		iv := int64(v)
		if strings.HasPrefix(t, "-") {
			iv = -iv
		}
		return ImmI(iv), nil
	case isFloatConst(tok):
		// Constants on MUFU instructions are GENERIC operands (recognized
		// by text); elsewhere they are IMM_DOUBLE (Listing 2).
		if op == OpMUFU {
			return Generic(canonGeneric(tok)), nil
		}
		v, _ := parseFloatConst(tok)
		return ImmF(v), nil
	case strings.HasPrefix(tok, "`") && strings.HasSuffix(tok, "`"):
		return Label(strings.Trim(tok, "`")), nil
	case isIdent(tok):
		return Label(tok), nil
	default:
		return Operand{}, fmt.Errorf("cannot parse operand %q", tok)
	}
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func isNumberStart(s string) bool {
	if len(s) < 2 {
		return false
	}
	c := s[1]
	return s[0] == '-' && (c >= '0' && c <= '9' || c == '.' ||
		strings.HasPrefix(s[1:], "INF") || strings.HasPrefix(s[1:], "QNAN") || strings.HasPrefix(s[1:], "0x"))
}

func isFloatConst(s string) bool {
	u := strings.TrimPrefix(strings.TrimPrefix(s, "+"), "-")
	if u == "INF" || u == "QNAN" || u == "NAN" {
		return true
	}
	if u == "" {
		return false
	}
	if c := u[0]; c < '0' || c > '9' {
		if c != '.' {
			return false
		}
	}
	_, err := strconv.ParseFloat(u, 64)
	return err == nil
}

// parseFloatConst returns the value and whether the spelling is one of the
// textual exceptional constants (INF/QNAN) rather than a numeral.
func parseFloatConst(s string) (float64, bool) {
	negate := strings.HasPrefix(s, "-")
	u := strings.TrimPrefix(strings.TrimPrefix(s, "+"), "-")
	switch u {
	case "INF":
		if negate {
			return math.Inf(-1), true
		}
		return math.Inf(1), true
	case "QNAN", "NAN":
		n := math.NaN()
		if negate {
			n = math.Copysign(n, -1)
		}
		return n, true
	}
	v, _ := strconv.ParseFloat(u, 64)
	if negate {
		v = -v
	}
	return v, false
}

func canonGeneric(s string) string {
	if !strings.HasPrefix(s, "+") && !strings.HasPrefix(s, "-") {
		return "+" + s
	}
	return s
}

func isIdent(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}

// Format renders a kernel as parseable listing text.
func Format(k *Kernel) string {
	var b strings.Builder
	last := SourceLoc{}
	// Collect branch targets so we can emit labels.
	targets := map[int]string{}
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if in.Op == OpBRA && len(in.Operands) == 1 && in.Operands[0].Type == OperandImmInt {
			t := int(in.Operands[0].IVal)
			if _, ok := targets[t]; !ok {
				targets[t] = fmt.Sprintf("L_%d", t)
			}
		}
	}
	for i := range k.Instrs {
		in := k.Instrs[i]
		if in.Loc != last && in.Loc.IsKnown() {
			fmt.Fprintf(&b, ".loc %s %d\n", in.Loc.File, in.Loc.Line)
			last = in.Loc
		}
		if lbl, ok := targets[i]; ok {
			fmt.Fprintf(&b, "%s:\n", lbl)
		}
		if in.Op == OpBRA && len(in.Operands) == 1 && in.Operands[0].Type == OperandImmInt {
			guard := ""
			if !(in.Guard == PT && !in.GuardNeg) {
				neg := ""
				if in.GuardNeg {
					neg = "!"
				}
				guard = fmt.Sprintf("@%sP%d ", neg, in.Guard)
			}
			fmt.Fprintf(&b, "%sBRA %s ;\n", guard, targets[int(in.Operands[0].IVal)])
			continue
		}
		b.WriteString(in.String())
		b.WriteByte('\n')
	}
	return b.String()
}
