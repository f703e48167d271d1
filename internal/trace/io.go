package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"oovec/internal/isa"
)

// Binary trace format, analogous in spirit to Dixie's compact traces:
//
//	magic   "OVTR"           4 bytes
//	version uvarint          (currently 1)
//	name    uvarint len + bytes
//	suite   uvarint len + bytes
//	count   uvarint
//	count × instruction records
//
// Each instruction record is a flag byte followed by only the fields the
// flags say are present, all varint-encoded. This keeps scalar-heavy traces
// around 4–6 bytes per instruction.

const magic = "OVTR"
const formatVersion = 1

// Flag bits for the per-instruction record.
const (
	flagDst uint8 = 1 << iota
	flagSrc1
	flagSrc2
	flagVec   // VL and VS present
	flagAddr  // Addr present
	flagTaken // branch taken
	flagSpill
)

// Write serialises the trace to w in the binary trace format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putString := func(s string) error {
		if err := putUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := putUvarint(formatVersion); err != nil {
		return err
	}
	if err := putString(t.Name); err != nil {
		return err
	}
	if err := putString(t.Suite); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Insns))); err != nil {
		return err
	}
	prevPC := uint64(0)
	for i := range t.Insns {
		in := &t.Insns[i]
		var flags uint8
		if in.Dst.Class != isa.RegNone {
			flags |= flagDst
		}
		if in.Src1.Class != isa.RegNone {
			flags |= flagSrc1
		}
		if in.Src2.Class != isa.RegNone {
			flags |= flagSrc2
		}
		if in.Op.IsVector() {
			flags |= flagVec
		}
		if in.Addr != 0 || in.Op.IsMem() || in.Op.IsBranch() {
			flags |= flagAddr
		}
		if in.Taken {
			flags |= flagTaken
		}
		if in.Spill {
			flags |= flagSpill
		}
		if err := bw.WriteByte(byte(in.Op)); err != nil {
			return err
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		// PC is delta-encoded against the previous instruction.
		if err := putVarint(int64(in.PC) - int64(prevPC)); err != nil {
			return err
		}
		prevPC = in.PC
		if flags&flagDst != 0 {
			if err := bw.WriteByte(packReg(in.Dst)); err != nil {
				return err
			}
		}
		if flags&flagSrc1 != 0 {
			if err := bw.WriteByte(packReg(in.Src1)); err != nil {
				return err
			}
		}
		if flags&flagSrc2 != 0 {
			if err := bw.WriteByte(packReg(in.Src2)); err != nil {
				return err
			}
		}
		if flags&flagVec != 0 {
			if err := putUvarint(uint64(in.VL)); err != nil {
				return err
			}
			if err := putVarint(int64(in.VS)); err != nil {
				return err
			}
		}
		if flags&flagAddr != 0 {
			if err := putUvarint(in.Addr); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Limits bound what Read will decode. The OVTR header is length-prefixed,
// so a corrupt or hostile input can claim arbitrarily large counts; the
// limits turn those into errors before any allocation matches the claim.
type Limits struct {
	// MaxInsns is the maximum instruction count accepted (<= 0 selects the
	// DefaultLimits value).
	MaxInsns int
	// MaxNameLen is the maximum byte length of the name and suite strings
	// (<= 0 selects the DefaultLimits value).
	MaxNameLen int
}

// DefaultLimits are the bounds Read applies: generous enough for every
// trace this repository generates (full-size benchmarks are ~100k dynamic
// instructions), far below an allocation that could hurt the process.
func DefaultLimits() Limits {
	return Limits{MaxInsns: 1 << 26, MaxNameLen: 1 << 16}
}

func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxInsns <= 0 {
		l.MaxInsns = d.MaxInsns
	}
	if l.MaxNameLen <= 0 {
		l.MaxNameLen = d.MaxNameLen
	}
	return l
}

// Read deserialises a trace written by Write, under DefaultLimits.
func Read(r io.Reader) (*Trace, error) {
	return ReadLimited(r, DefaultLimits())
}

// maxPrealloc caps the instruction capacity allocated up front from the
// header's claimed count. A count within limits but larger than the actual
// payload (a truncated or lying header) costs at most this many slots
// before the decode loop hits the real EOF; honest traces beyond it just
// grow by append.
const maxPrealloc = 1 << 16

// ReadLimited deserialises a trace written by Write, enforcing the given
// bounds on untrusted input (the ovserve upload path).
func ReadLimited(r io.Reader, lim Limits) (*Trace, error) {
	lim = lim.withDefaults()
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("trace: bad magic (not an OVTR trace)")
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	getString := func() (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if n > uint64(lim.MaxNameLen) {
			return "", fmt.Errorf("trace: string length %d exceeds limit %d", n, lim.MaxNameLen)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	t := &Trace{}
	if t.Name, err = getString(); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	if t.Suite, err = getString(); err != nil {
		return nil, fmt.Errorf("trace: reading suite: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	if count > uint64(lim.MaxInsns) {
		return nil, fmt.Errorf("trace: instruction count %d exceeds limit %d", count, lim.MaxInsns)
	}
	prealloc := count
	if prealloc > maxPrealloc {
		prealloc = maxPrealloc
	}
	t.Insns = make([]isa.Instruction, 0, prealloc)
	prevPC := uint64(0)
	for i := uint64(0); i < count; i++ {
		op, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: insn %d: %w", i, err)
		}
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: insn %d: %w", i, err)
		}
		var in isa.Instruction
		in.Op = isa.Op(op)
		dpc, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: insn %d pc: %w", i, err)
		}
		in.PC = uint64(int64(prevPC) + dpc)
		prevPC = in.PC
		// A flagged operand must encode a real register: Write only sets
		// the flag for Class != RegNone, so a none-class operand byte is a
		// non-canonical encoding that would not survive a round trip (and
		// would collide distinct byte streams onto one digest).
		getReg := func() (isa.Reg, error) {
			b, err := br.ReadByte()
			if err != nil {
				return isa.Reg{}, err
			}
			reg := unpackReg(b)
			if reg.Class == isa.RegNone {
				return isa.Reg{}, fmt.Errorf("flagged operand encodes no register class")
			}
			return reg, nil
		}
		if flags&flagDst != 0 {
			if in.Dst, err = getReg(); err != nil {
				return nil, fmt.Errorf("trace: insn %d dst: %w", i, err)
			}
		}
		if flags&flagSrc1 != 0 {
			if in.Src1, err = getReg(); err != nil {
				return nil, fmt.Errorf("trace: insn %d src1: %w", i, err)
			}
		}
		if flags&flagSrc2 != 0 {
			if in.Src2, err = getReg(); err != nil {
				return nil, fmt.Errorf("trace: insn %d src2: %w", i, err)
			}
		}
		if flags&flagVec != 0 && !in.Op.IsVector() {
			// Write derives the flag from the opcode; a scalar op carrying
			// vector fields would silently drop them on re-encode.
			return nil, fmt.Errorf("trace: insn %d: scalar op %s carries vector fields", i, in.Op)
		}
		if flags&flagVec != 0 {
			vl, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			// Bounds-check before narrowing: silent truncation would let
			// byte-distinct inputs (vl and vl+65536) collapse onto one
			// decoded trace — and one digest.
			if vl > uint64(isa.MaxVL) {
				return nil, fmt.Errorf("trace: insn %d: VL %d exceeds the architectural maximum %d", i, vl, isa.MaxVL)
			}
			in.VL = uint16(vl)
			vs, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			if vs < math.MinInt32 || vs > math.MaxInt32 {
				return nil, fmt.Errorf("trace: insn %d: stride %d overflows int32", i, vs)
			}
			in.VS = int32(vs)
		}
		if flags&flagAddr != 0 {
			if in.Addr, err = binary.ReadUvarint(br); err != nil {
				return nil, err
			}
		}
		in.Taken = flags&flagTaken != 0
		in.Spill = flags&flagSpill != 0
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("trace: insn %d: %w", i, err)
		}
		t.Insns = append(t.Insns, in)
	}
	return t, nil
}

// packReg encodes a register in one byte: class in the top 3 bits, index in
// the low 5.
func packReg(r isa.Reg) byte {
	return byte(r.Class)<<5 | (r.Idx & 0x1f)
}

func unpackReg(b byte) isa.Reg {
	return isa.Reg{Class: isa.RegClass(b >> 5), Idx: b & 0x1f}
}
