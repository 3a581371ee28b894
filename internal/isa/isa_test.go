package isa

import (
	"bytes"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestOpTableComplete(t *testing.T) {
	for op := INVALID + 1; op < numOps; op++ {
		if opTable[op].name == "" {
			t.Errorf("op %d has no table entry", op)
		}
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := INVALID + 1; op < numOps; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v; want %v, true", op.String(), got, ok, op)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("OpByName(bogus) succeeded")
	}
}

func TestRegNames(t *testing.T) {
	cases := map[string]Reg{
		"zero": 0, "x0": 0, "ra": 1, "sp": 2, "fp": 8, "s0": 8,
		"a0": 10, "t6": 31, "x31": 31,
	}
	for name, want := range cases {
		got, ok := RegByName(name)
		if !ok || got != want {
			t.Errorf("RegByName(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	if _, ok := RegByName("x32"); ok {
		t.Error("RegByName(x32) succeeded")
	}
	if Reg(10).String() != "a0" {
		t.Errorf("Reg(10).String() = %q, want a0", Reg(10).String())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(opRaw uint8, rd, rs1, rs2 uint8, imm int32) bool {
		op := Op(opRaw%uint8(numOps-1)) + 1 // valid op
		in := Inst{Op: op, Rd: Reg(rd % 32), Rs1: Reg(rs1 % 32), Rs2: Reg(rs2 % 32), Imm: int64(imm)}
		var b [InstBytes]byte
		if err := in.Encode(b[:]); err != nil {
			t.Logf("encode error: %v", err)
			return false
		}
		out, err := Decode(b[:])
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsMalformed(t *testing.T) {
	var b [InstBytes]byte
	if err := (Inst{Op: INVALID}).Encode(b[:]); err == nil {
		t.Error("encoding INVALID succeeded")
	}
	if err := (Inst{Op: ADD, Rd: 40}).Encode(b[:]); err == nil {
		t.Error("encoding out-of-range register succeeded")
	}
	if err := (Inst{Op: ADDI, Imm: 1 << 40}).Encode(b[:]); err == nil {
		t.Error("encoding oversized immediate succeeded")
	}
	if err := (Inst{Op: ADD}).Encode(b[:2]); err == nil {
		t.Error("encoding into short buffer succeeded")
	}
	if _, err := Decode(b[:3]); err == nil {
		t.Error("decoding short buffer succeeded")
	}
	b[0] = byte(numOps)
	if _, err := Decode(b[:]); err == nil {
		t.Error("decoding invalid opcode succeeded")
	}
}

func TestEvalALUBasics(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{ADD, 2, 3, 5},
		{SUB, 2, 3, ^uint64(0)},
		{AND, 0b1100, 0b1010, 0b1000},
		{OR, 0b1100, 0b1010, 0b1110},
		{XOR, 0b1100, 0b1010, 0b0110},
		{SLL, 1, 63, 1 << 63},
		{SLL, 1, 64, 1}, // shift amount masked to 6 bits
		{SRL, 1 << 63, 63, 1},
		{SRA, uint64(0x8000000000000000), 63, ^uint64(0)},
		{SLT, uint64(0xffffffffffffffff), 0, 1}, // -1 < 0 signed
		{SLTU, uint64(0xffffffffffffffff), 0, 0},
		{LUI, 0, 5, 5 << 12},
		{MUL, 7, 6, 42},
		{DIV, ^uint64(7) + 1, 2, ^uint64(3) + 1}, // -7/2 = -3
		{DIV, 7, 0, ^uint64(0)},
		{DIVU, 7, 0, ^uint64(0)},
		{REM, 7, 0, 7},
		{REM, ^uint64(7) + 1, 2, ^uint64(0)}, // -7%2 = -1
		{REMU, 7, 3, 1},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b); got != c.want {
			t.Errorf("EvalALU(%v, %#x, %#x) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestDivOverflow(t *testing.T) {
	minInt := uint64(1) << 63
	if got := EvalALU(DIV, minInt, ^uint64(0)); got != minInt {
		t.Errorf("DIV overflow = %#x, want %#x", got, minInt)
	}
	if got := EvalALU(REM, minInt, ^uint64(0)); got != 0 {
		t.Errorf("REM overflow = %#x, want 0", got)
	}
}

func TestMulhAgainstBits(t *testing.T) {
	f := func(a, b int64) bool {
		got := EvalALU(MULH, uint64(a), uint64(b))
		// Reference: signed high multiply via math/bits unsigned plus
		// correction terms.
		hi, _ := bits.Mul64(uint64(a), uint64(b))
		if a < 0 {
			hi -= uint64(b)
		}
		if b < 0 {
			hi -= uint64(a)
		}
		return got == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEvalBranch(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want bool
	}{
		{BEQ, 5, 5, true},
		{BEQ, 5, 6, false},
		{BNE, 5, 6, true},
		{BLT, ^uint64(0), 0, true}, // -1 < 0
		{BLTU, ^uint64(0), 0, false},
		{BGE, 0, ^uint64(0), true}, // 0 >= -1
		{BGEU, 0, ^uint64(0), false},
	}
	for _, c := range cases {
		if got := EvalBranch(c.op, c.a, c.b); got != c.want {
			t.Errorf("EvalBranch(%v, %#x, %#x) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestExtendLoad(t *testing.T) {
	cases := []struct {
		op   Op
		raw  uint64
		want uint64
	}{
		{LB, 0x80, 0xffffffffffffff80},
		{LBU, 0x80, 0x80},
		{LH, 0x8000, 0xffffffffffff8000},
		{LHU, 0x8000, 0x8000},
		{LW, 0x80000000, 0xffffffff80000000},
		{LWU, 0x80000000, 0x80000000},
		{LD, 0x1234567890abcdef, 0x1234567890abcdef},
	}
	for _, c := range cases {
		if got := ExtendLoad(c.op, c.raw); got != c.want {
			t.Errorf("ExtendLoad(%v, %#x) = %#x, want %#x", c.op, c.raw, got, c.want)
		}
	}
}

func TestTransmitterSet(t *testing.T) {
	for op := INVALID + 1; op < numOps; op++ {
		want := op.Class() == ClassLoad || op.Class() == ClassDiv || op == CFLUSH
		if got := op.IsTransmitter(); got != want {
			t.Errorf("%v.IsTransmitter() = %v, want %v", op, got, want)
		}
	}
}

func TestSrcDestRegs(t *testing.T) {
	in := Inst{Op: ADD, Rd: RegA0, Rs1: RegA1, Rs2: RegA2}
	if rd, ok := in.DestReg(); !ok || rd != RegA0 {
		t.Errorf("DestReg = %v, %v", rd, ok)
	}
	srcs := in.SrcRegs(nil)
	if len(srcs) != 2 || srcs[0] != RegA1 || srcs[1] != RegA2 {
		t.Errorf("SrcRegs = %v", srcs)
	}
	// x0 reads and writes are elided.
	in = Inst{Op: ADD, Rd: RegZero, Rs1: RegZero, Rs2: RegZero}
	if _, ok := in.DestReg(); ok {
		t.Error("DestReg of x0 write reported a destination")
	}
	if srcs := in.SrcRegs(nil); len(srcs) != 0 {
		t.Errorf("SrcRegs with x0 sources = %v", srcs)
	}
}

func TestBranchTarget(t *testing.T) {
	in := Inst{Op: BEQ, Imm: -16}
	if got := in.BranchTarget(0x100); got != 0xf0 {
		t.Errorf("BranchTarget = %#x, want 0xf0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("BranchTarget on ADD did not panic")
		}
	}()
	(Inst{Op: ADD}).BranchTarget(0)
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: RegA0, Rs1: RegA1, Rs2: RegA2}, "add a0, a1, a2"},
		{Inst{Op: ADDI, Rd: RegA0, Rs1: RegA1, Imm: -4}, "addi a0, a1, -4"},
		{Inst{Op: LD, Rd: RegA0, Rs1: RegSP, Imm: 8}, "ld a0, 8(sp)"},
		{Inst{Op: SD, Rs1: RegSP, Rs2: RegA0, Imm: 8}, "sd a0, 8(sp)"},
		{Inst{Op: BEQ, Rs1: RegA0, Rs2: RegA1, Imm: 16}, "beq a0, a1, 16"},
		{Inst{Op: JAL, Rd: RegRA, Imm: 32}, "jal ra, 32"},
		{Inst{Op: JALR, Rd: RegZero, Rs1: RegRA, Imm: 0}, "jalr zero, 0(ra)"},
		{Inst{Op: FENCE}, "fence"},
		{Inst{Op: RDCYCLE, Rd: RegT0}, "rdcycle t0"},
		{Inst{Op: HALT, Rs1: RegA0}, "halt a0"},
		{Inst{Op: CFLUSH, Rs1: RegA0, Imm: 64}, "cflush 64(a0)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestProgramMarshalRoundTripQuick(t *testing.T) {
	f := func(nInst uint8, data []byte, entryIdx uint8, symSeed uint8) bool {
		p := NewProgram()
		n := int(nInst%40) + 1
		for i := 0; i < n; i++ {
			p.Text = append(p.Text, Inst{Op: ADDI, Rd: Reg(i % 32), Rs1: Reg((i + 7) % 32), Imm: int64(i) * 3})
		}
		p.Data = data
		p.Entry = TextBase + uint64(int(entryIdx)%n)*InstBytes
		p.Symbols["main"] = p.Entry
		p.Symbols[string(rune('a'+symSeed%26))] = DataBase + uint64(symSeed)
		// A hint on the first instruction is invalid (not a branch) for
		// Validate, but serialization must round-trip it regardless.
		p.Hints[p.PCOf(0)] = BranchHint{ReconvPC: p.PCOf(n - 1), WriteSet: RegMask(symSeed)}
		b, err := p.MarshalBinary()
		if err != nil {
			return false
		}
		q := new(Program)
		if err := q.UnmarshalBinary(b); err != nil {
			return false
		}
		if q.Entry != p.Entry || len(q.Text) != len(p.Text) || string(q.Data) != string(p.Data) {
			return false
		}
		for i := range p.Text {
			if q.Text[i] != p.Text[i] {
				return false
			}
		}
		for k, v := range p.Symbols {
			if q.Symbols[k] != v {
				return false
			}
		}
		for k, v := range p.Hints {
			if q.Hints[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWriteToMatchesMarshal: WriteTo emits exactly MarshalBinary's bytes,
// for version-1 and version-2 (secret ranges) images alike — a result key
// hashing a program through WriteTo must agree with one hashing its image.
func TestWriteToMatchesMarshal(t *testing.T) {
	p := NewProgram()
	p.Text = []Inst{{Op: ADDI, Rd: 1, Imm: 3}, {Op: HALT}}
	p.Data = []byte{1, 2, 3, 4, 5}
	p.Symbols["main"] = TextBase
	p.Symbols["buf"] = DataBase
	p.Hints[TextBase] = BranchHint{ReconvPC: TextBase + 8, WriteSet: 6}
	for _, secrets := range [][]SecretRange{nil, {{Base: DataBase + 2, Len: 2}, {Base: DataBase, Len: 1}}} {
		p.Secrets = secrets
		img, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		n, err := p.WriteTo(&buf)
		if err != nil || n != int64(len(img)) || !bytes.Equal(buf.Bytes(), img) {
			t.Errorf("secrets %v: WriteTo wrote %d bytes (%v), MarshalBinary %d; equal=%v",
				secrets, n, err, len(img), bytes.Equal(buf.Bytes(), img))
		}
	}
}

func TestUnmarshalNeverPanicsOnGarbage(t *testing.T) {
	f := func(b []byte) bool {
		// Must return an error or a structurally valid program — never panic.
		p := new(Program)
		_ = p.UnmarshalBinary(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// And with a valid prefix + truncation.
	p := NewProgram()
	p.Text = []Inst{{Op: HALT}}
	img, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(img); cut++ {
		_ = new(Program).UnmarshalBinary(img[:cut])
	}
}

func TestNearestSymbol(t *testing.T) {
	p := NewProgram()
	p.Symbols["f"] = 0x1000
	p.Symbols["g"] = 0x1100
	if name, off, ok := p.NearestSymbol(0x1108); !ok || name != "g" || off != 8 {
		t.Errorf("NearestSymbol = %s+%d, %v", name, off, ok)
	}
	if name, _, ok := p.NearestSymbol(0x1000); !ok || name != "f" {
		t.Errorf("exact NearestSymbol = %s", name)
	}
	if _, _, ok := p.NearestSymbol(0x500); ok {
		t.Error("symbol before all addresses found")
	}
}
