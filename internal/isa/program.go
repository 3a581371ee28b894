package isa

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Standard memory layout for LEV64 programs. Addresses are small enough that
// every label fits a 32-bit immediate, which keeps la/li single instructions.
const (
	TextBase uint64 = 0x1000     // first instruction
	DataBase uint64 = 0x100000   // start of .data (gp points here at reset)
	StackTop uint64 = 0x8000000  // initial sp (grows down)
	MemLimit uint64 = 0x10000000 // simulated physical memory ceiling
)

// BranchHint is the per-branch annotation the Levioso compiler embeds in the
// binary: the branch's reconvergence PC (its immediate post-dominator — the
// first instruction that executes regardless of the branch outcome) and the
// set of architectural registers that may be written on any path between the
// branch and that reconvergence point.
//
// An instruction is *truly dependent* on an in-flight branch iff it precedes
// the branch's reconvergence point (control dependence) or it transitively
// consumes a register in the branch's write set defined after the branch
// (data dependence). Levioso hardware gates transmitters on exactly this set.
type BranchHint struct {
	ReconvPC uint64  // 0 means "unknown": hardware must be conservative
	WriteSet RegMask // registers possibly written before reconvergence
}

// SecretRange marks [Base, Base+Len) as holding secret-typed data. Programs
// declare these with the `.secret` assembler directive (or a `secret var` in
// the language); ProSpeCT-style policies protect exactly these bytes and
// nothing else.
type SecretRange struct {
	Base uint64
	Len  uint64
}

// Contains reports whether any byte of [addr, addr+size) falls in the range.
func (s SecretRange) Contains(addr, size uint64) bool {
	if size == 0 {
		return false
	}
	return addr < s.Base+s.Len && s.Base < addr+size
}

// Program is a loadable LEV64 binary image: text, initialized data, entry
// point, symbols for diagnostics, and the Levioso annotation table.
type Program struct {
	Text    []Inst            // instructions, Text[i] at TextBase + i*InstBytes
	Data    []byte            // initialized data at DataBase
	Entry   uint64            // initial PC
	Symbols map[string]uint64 // label -> address (text and data)
	Hints   map[uint64]BranchHint
	// Secrets lists the secret-typed memory regions, if any (sorted by
	// base address). Only secret-aware policies consult them.
	Secrets []SecretRange
	// SrcLines optionally maps instruction index to a source description
	// (assembler line or compiler statement) for listings and debugging.
	SrcLines map[int]string
}

// NewProgram returns an empty program with the standard entry point.
func NewProgram() *Program {
	return &Program{
		Entry:    TextBase,
		Symbols:  make(map[string]uint64),
		Hints:    make(map[uint64]BranchHint),
		SrcLines: make(map[int]string),
	}
}

// InstIndex converts a text address to an instruction index.
// ok is false if pc is outside the text segment or misaligned.
func (p *Program) InstIndex(pc uint64) (int, bool) {
	if pc < TextBase || (pc-TextBase)%InstBytes != 0 {
		return 0, false
	}
	i := int((pc - TextBase) / InstBytes)
	if i >= len(p.Text) {
		return 0, false
	}
	return i, true
}

// InstAt fetches the instruction at pc.
func (p *Program) InstAt(pc uint64) (Inst, bool) {
	i, ok := p.InstIndex(pc)
	if !ok {
		return Inst{}, false
	}
	return p.Text[i], true
}

// PCOf converts an instruction index to its address.
func (p *Program) PCOf(i int) uint64 { return TextBase + uint64(i)*InstBytes }

// TextEnd returns the first address past the text segment.
func (p *Program) TextEnd() uint64 { return TextBase + uint64(len(p.Text))*InstBytes }

// SymbolAt returns the name of the symbol at exactly addr, if any.
// When several labels share an address the lexically smallest is returned,
// keeping listings deterministic.
func (p *Program) SymbolAt(addr uint64) (string, bool) {
	best := ""
	for name, a := range p.Symbols {
		if a == addr && (best == "" || name < best) {
			best = name
		}
	}
	return best, best != ""
}

// NearestSymbol returns the closest symbol at or before addr and the offset
// from it, for diagnostics ("qsort+0x18").
func (p *Program) NearestSymbol(addr uint64) (string, uint64, bool) {
	type sym struct {
		name string
		addr uint64
	}
	var syms []sym
	for name, a := range p.Symbols {
		if a <= addr {
			syms = append(syms, sym{name, a})
		}
	}
	if len(syms) == 0 {
		return "", 0, false
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].addr != syms[j].addr {
			return syms[i].addr > syms[j].addr
		}
		return syms[i].name < syms[j].name
	})
	return syms[0].name, addr - syms[0].addr, true
}

// Validate checks structural invariants: entry in text, control-flow targets
// inside the text segment, hints keyed at branch PCs with in-range
// reconvergence points. Workload and compiler tests run this on every binary.
func (p *Program) Validate() error {
	if _, ok := p.InstIndex(p.Entry); !ok {
		return fmt.Errorf("program: entry %#x outside text", p.Entry)
	}
	for i, in := range p.Text {
		pc := p.PCOf(i)
		if in.Op.IsBranch() || in.Op == JAL {
			tgt := in.BranchTarget(pc)
			if _, ok := p.InstIndex(tgt); !ok {
				return fmt.Errorf("program: %#x %v: target %#x outside text", pc, in, tgt)
			}
		}
	}
	for pc, h := range p.Hints {
		in, ok := p.InstAt(pc)
		if !ok {
			return fmt.Errorf("program: hint at %#x: no such instruction", pc)
		}
		if !in.Op.IsBranch() {
			return fmt.Errorf("program: hint at %#x: %v is not a branch", pc, in)
		}
		if h.ReconvPC != 0 {
			if _, ok := p.InstIndex(h.ReconvPC); !ok && h.ReconvPC != p.TextEnd() {
				return fmt.Errorf("program: hint at %#x: reconvergence %#x outside text", pc, h.ReconvPC)
			}
		}
	}
	for _, s := range p.Secrets {
		if s.Len == 0 {
			return fmt.Errorf("program: secret range at %#x has zero length", s.Base)
		}
		if s.Base+s.Len < s.Base || s.Base+s.Len > MemLimit {
			return fmt.Errorf("program: secret range [%#x,+%d) outside memory", s.Base, s.Len)
		}
	}
	return nil
}

// Binary image serialization. The format is a simple sectioned container:
//
//	magic "LEV64\x00" | version u16 | entry u64
//	text: count u32, then count*8 bytes of instructions
//	data: len u32, bytes
//	syms: count u32, then (nameLen u16, name, addr u64)*
//	hints: count u32, then (pc u64, reconv u64, writeset u32)*
//	secrets (version 2 only): count u32, then (base u64, len u64)*
//
// A program without secret ranges marshals as version 1, byte-identical to
// images written before secrets existed, so binary hashes and cache keys of
// all pre-existing programs are unchanged. UnmarshalBinary accepts both.
//
// This is what cmd/levas writes and cmd/levsim reads.

const (
	magic          = "LEV64\x00"
	version        = 1
	versionSecrets = 2
)

// MarshalBinary serializes the program image (source lines are not kept).
func (p *Program) MarshalBinary() ([]byte, error) {
	head, tail, err := p.imageParts()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(head)+len(p.Data)+len(tail))
	out = append(out, head...)
	out = append(out, p.Data...)
	return append(out, tail...), nil
}

// WriteTo writes the bytes MarshalBinary returns to w, without building the
// image: the data section, most of a large image, goes to w as it is. A
// result-cache key hashes a program this way.
func (p *Program) WriteTo(w io.Writer) (int64, error) {
	head, tail, err := p.imageParts()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, b := range [...][]byte{head, p.Data, tail} {
		m, err := w.Write(b)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// imageParts encodes the image around its data section: head is everything
// up to the data length, tail everything after the data bytes.
func (p *Program) imageParts() (head, tail []byte, err error) {
	v := uint16(version)
	if len(p.Secrets) > 0 {
		v = versionSecrets
	}
	head = make([]byte, 0, len(magic)+2+8+4+len(p.Text)*InstBytes+4)
	head = append(head, magic...)
	head = binary.LittleEndian.AppendUint16(head, v)
	head = binary.LittleEndian.AppendUint64(head, p.Entry)

	head = binary.LittleEndian.AppendUint32(head, uint32(len(p.Text)))
	var buf [InstBytes]byte
	for _, in := range p.Text {
		if err := in.Encode(buf[:]); err != nil {
			return nil, nil, err
		}
		head = append(head, buf[:]...)
	}
	head = binary.LittleEndian.AppendUint32(head, uint32(len(p.Data)))

	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(names)))
	for _, n := range names {
		if len(n) > 1<<16-1 {
			return nil, nil, fmt.Errorf("program: symbol name too long: %q", n[:32])
		}
		tail = binary.LittleEndian.AppendUint16(tail, uint16(len(n)))
		tail = append(tail, n...)
		tail = binary.LittleEndian.AppendUint64(tail, p.Symbols[n])
	}

	pcs := make([]uint64, 0, len(p.Hints))
	for pc := range p.Hints {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(pcs)))
	for _, pc := range pcs {
		h := p.Hints[pc]
		tail = binary.LittleEndian.AppendUint64(tail, pc)
		tail = binary.LittleEndian.AppendUint64(tail, h.ReconvPC)
		tail = binary.LittleEndian.AppendUint32(tail, uint32(h.WriteSet))
	}

	if v >= versionSecrets {
		secrets := append([]SecretRange(nil), p.Secrets...)
		sort.Slice(secrets, func(i, j int) bool { return secrets[i].Base < secrets[j].Base })
		tail = binary.LittleEndian.AppendUint32(tail, uint32(len(secrets)))
		for _, s := range secrets {
			tail = binary.LittleEndian.AppendUint64(tail, s.Base)
			tail = binary.LittleEndian.AppendUint64(tail, s.Len)
		}
	}
	return head, tail, nil
}

// UnmarshalBinary parses a serialized program image.
func (p *Program) UnmarshalBinary(b []byte) error {
	r := reader{b: b}
	if string(r.bytes(len(magic))) != magic {
		return fmt.Errorf("program: bad magic")
	}
	v := r.u16()
	if v != version && v != versionSecrets {
		return fmt.Errorf("program: unsupported version %d", v)
	}
	p.Entry = r.u64()

	n := int(r.u32())
	p.Text = make([]Inst, 0, n)
	for i := 0; i < n; i++ {
		in, err := Decode(r.bytes(InstBytes))
		if err != nil {
			return fmt.Errorf("program: text[%d]: %w", i, err)
		}
		p.Text = append(p.Text, in)
	}

	dn := int(r.u32())
	p.Data = append([]byte(nil), r.bytes(dn)...)

	sn := int(r.u32())
	p.Symbols = make(map[string]uint64, sn)
	for i := 0; i < sn; i++ {
		nl := int(r.u16())
		name := string(r.bytes(nl))
		p.Symbols[name] = r.u64()
	}

	hn := int(r.u32())
	p.Hints = make(map[uint64]BranchHint, hn)
	for i := 0; i < hn; i++ {
		pc := r.u64()
		p.Hints[pc] = BranchHint{ReconvPC: r.u64(), WriteSet: RegMask(r.u32())}
	}

	p.Secrets = nil
	if v >= versionSecrets {
		cn := int(r.u32())
		for i := 0; i < cn; i++ {
			p.Secrets = append(p.Secrets, SecretRange{Base: r.u64(), Len: r.u64()})
		}
	}
	if p.SrcLines == nil {
		p.SrcLines = make(map[int]string)
	}
	if r.err {
		return fmt.Errorf("program: truncated image")
	}
	return nil
}

// reader is a tiny cursor over a byte slice that records overruns instead of
// panicking, so UnmarshalBinary can return a single error at the end.
type reader struct {
	b   []byte
	err bool
}

func (r *reader) bytes(n int) []byte {
	if n < 0 || len(r.b) < n {
		r.err = true
		return make([]byte, n&^(-1<<20)) // bounded zero buffer on error
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u16() uint16 { return binary.LittleEndian.Uint16(r.bytes(2)) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.bytes(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.bytes(8)) }
