// Package rtl provides a cycle-based register-transfer-level simulation
// kernel: named, width-typed signals (wires and registers), memory arrays,
// ordered combinational processes with a two-phase evaluate/commit clock,
// and per-bit fault forcing.
//
// It plays the role the VHDL simulator plays in the reproduced paper. In
// particular it implements simulator-command fault injection in the style
// of MEFISTO [Jenn et al., FTCS 1994]: faults are forced onto existing
// signals without instrumenting the model. Three permanent fault models
// are supported — stuck-at-0, stuck-at-1 and open-line (a disconnected
// driver whose net retains the charge it had at injection time) — plus
// two transient models: bit-flip (a single-event upset that inverts the
// committed value once) and SET pulse (the bit forced to its complement
// for a bounded window, then released).
//
// Fault forcing is read-side for every model except bit-flip: Inject
// never rewrites slab state, it only redirects what consumers observe.
// A bit-flip rewrites one raw word, which the kernel copies raw only
// inside its own net (the clock-edge commit and Hold), so it too stays
// invisible until a consumer reads that word. That property is the seam
// the bit-parallel (PPSFP) campaign engine is built on: StartWitness
// arms per-net read observation, each cycle's WitnessAcc records exactly
// which bit values the design consumed, and a fault universe whose
// faulted bit is never read differently from the golden run provably
// cannot diverge — one witnessed golden pass therefore resolves every
// such universe (lane) of a campaign call at once (see internal/fault
// and DESIGN.md §10). InjectForced arms open-line and
// SET-pulse faults with an externally sampled charge so a lane's fork
// reproduces the scalar engine's injection instant exactly.
//
// # Slab state layout
//
// All dynamic state lives in kernel-owned flat slabs rather than in
// per-signal heap objects: one []uint64 pair (committed/pending) for the
// clocked signals, one pair for the wires, and one contiguous []uint64
// backing every memory array. Signal and MemArray are thin handles:
// a signal carries direct pointers into its slab slots, an array carries
// a subslice view of the array slab. The layout buys three things on the
// simulation hot path: the clock edge commits every register with a
// single bulk copy of the register slab (no per-signal scan), Snapshot
// and Restore are bulk slab copies instead of per-signal walks, and Get
// collapses to one pointer load plus one well-predicted branch on a
// per-signal slow-path flag (set only for the ≤1 faulted or bridged node
// of an experiment, with the kernel-level dirty flag guarding the
// campaign engine's clear/restore walks).
package rtl

import (
	"fmt"
	"sort"
	"strings"
)

// Unit tags a signal with the functional unit it belongs to, so that
// injection nodes can be grouped the way the paper groups them (IU versus
// CMEM, and per functional unit for the diversity weighting).
type Unit uint8

// Signal is a named RTL net carrying up to 64 bits. Registers additionally
// hold a pending next value committed on the clock edge. The values
// themselves live in the owning kernel's slabs; the Signal is a handle
// pointing at its two slab slots.
type Signal struct {
	curp *uint64 // committed value (slab slot)
	nxtp *uint64 // pending value (slab slot)
	mask uint64  // width mask

	slow  uint8 // nonzero when a fault, bridge or witness is armed on this net
	reg   bool
	width int
	idx   int32 // index within the reg or wire slab

	fMask uint64 // faulted bits
	fVal  uint64 // values of faulted bits

	bridges []bridge    // saboteur-style shorts to other nets
	obs     *WitnessAcc // read-observation accumulator (nil unless witnessed)

	k    *Kernel
	name string
}

// Name returns the hierarchical signal name.
func (s *Signal) Name() string { return s.name }

// Width returns the signal width in bits.
func (s *Signal) Width() int { return s.width }

// IsReg reports whether the signal is clocked.
func (s *Signal) IsReg() bool { return s.reg }

// Get samples the signal as seen by consumers, with any injected fault
// applied at the net. The clean-design fast path is a single slab load;
// only the (at most one) faulted or bridged net of an experiment takes
// the slow path.
func (s *Signal) Get() uint64 {
	if s.slow != 0 {
		return s.getSlow()
	}
	return *s.curp
}

// getSlow samples the signal with the armed fault forcing and bridge
// resolution applied, and records the sampled value into the witness
// accumulator when one is armed. It is kept out of line so that Get (and
// GetBool) stay small enough to inline at every sampling site; the call
// is taken only on faulted or witnessed nets.
//
//go:noinline
func (s *Signal) getSlow() uint64 {
	v := *s.curp&^s.fMask | s.fVal
	if s.bridges != nil {
		v = s.applyBridges(v)
	}
	if s.obs != nil {
		s.obs.Ones |= v
		s.obs.Zeros |= ^v
	}
	return v
}

// updateSlow recomputes the slow-path flag after fault, bridge or
// witness changes.
func (s *Signal) updateSlow() {
	if s.fMask != 0 || s.bridges != nil || s.obs != nil {
		s.slow = 1
	} else {
		s.slow = 0
	}
}

// GetBool samples a 1-bit signal.
func (s *Signal) GetBool() bool { return s.Get() != 0 }

// Set drives a wire combinationally (visible to processes that run later
// in the same cycle).
func (s *Signal) Set(v uint64) { *s.curp = v & s.mask }

// SetBool drives a 1-bit wire.
func (s *Signal) SetBool(v bool) {
	if v {
		s.Set(1)
	} else {
		s.Set(0)
	}
}

// SetNext schedules a register value for the next clock edge.
func (s *Signal) SetNext(v uint64) { *s.nxtp = v & s.mask }

// SetNextBool schedules a 1-bit register value.
func (s *Signal) SetNextBool(v bool) {
	if v {
		s.SetNext(1)
	} else {
		s.SetNext(0)
	}
}

// Hold re-schedules the current committed value, stalling the register.
func (s *Signal) Hold() { *s.nxtp = *s.curp }

// MemArray is an addressable RTL memory block (register file, cache tag or
// data RAM) with per-bit fault support on a single cell at a time. Its
// words live in the kernel's contiguous array slab; data is a subslice
// view into it.
type MemArray struct {
	data  []uint64
	mask  uint64
	fWord int // faulted word (-1 when clean)
	fMask uint64
	fVal  uint64

	obs []*WitnessAcc // per-word read observers (nil unless witnessed)

	off   int // word offset into the kernel array slab
	width int
	name  string
}

// Name returns the array name.
func (a *MemArray) Name() string { return a.name }

// Len returns the number of words.
func (a *MemArray) Len() int { return len(a.data) }

// Width returns the word width in bits.
func (a *MemArray) Width() int { return a.width }

// Read samples word i with any injected fault applied, recording the
// sampled value when the word is witnessed.
func (a *MemArray) Read(i int) uint64 {
	v := a.data[i]
	if i == a.fWord {
		v = (v &^ a.fMask) | a.fVal
	}
	if a.obs != nil {
		if w := a.obs[i]; w != nil {
			w.Ones |= v
			w.Zeros |= ^v
		}
	}
	return v
}

// Write stores word i. Faulted bits ignore the write (the cell is stuck).
func (a *MemArray) Write(i int, v uint64) { a.data[i] = v & a.mask }

// Kernel owns the signals, arrays and processes of a design and advances
// it cycle by cycle. All signal and array values live in the kernel's
// flat slabs (see the package comment).
type Kernel struct {
	regCur  []uint64 // committed values of clocked signals
	regNxt  []uint64 // pending values of clocked signals
	wireCur []uint64 // committed values of wires
	wireNxt []uint64 // pending values of wires (API fidelity only)
	arr     []uint64 // contiguous backing of every memory array

	signals []*Signal
	arrays  []*MemArray
	units   map[string]Unit // per signal/array name
	procs   []func()
	cycle   uint64

	faults []Fault
	fSigs  []*Signal   // signals with armed faults
	fArrs  []*MemArray // arrays with armed faults
	bSigs  []*Signal   // signals with armed bridges
	dirty  bool        // any fault or bridge armed on the design
}

// NewKernel returns an empty design.
func NewKernel() *Kernel {
	return &Kernel{units: make(map[string]Unit)}
}

// repoint refreshes every signal handle's slab pointers (slab growth
// during design construction may move the backing arrays).
func (k *Kernel) repoint() {
	for _, s := range k.signals {
		if s.reg {
			s.curp, s.nxtp = &k.regCur[s.idx], &k.regNxt[s.idx]
		} else {
			s.curp, s.nxtp = &k.wireCur[s.idx], &k.wireNxt[s.idx]
		}
	}
}

func (k *Kernel) addSignal(name string, width int, unit Unit, reg bool) *Signal {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("rtl: signal %s: bad width %d", name, width))
	}
	if _, dup := k.units[name]; dup {
		panic(fmt.Sprintf("rtl: duplicate name %s", name))
	}
	s := &Signal{k: k, name: name, width: width, reg: reg}
	if width == 64 {
		s.mask = ^uint64(0)
	} else {
		s.mask = 1<<width - 1
	}
	var grew bool
	if reg {
		s.idx = int32(len(k.regCur))
		grew = cap(k.regCur) == len(k.regCur)
		k.regCur = append(k.regCur, 0)
		k.regNxt = append(k.regNxt, 0)
	} else {
		s.idx = int32(len(k.wireCur))
		grew = cap(k.wireCur) == len(k.wireCur)
		k.wireCur = append(k.wireCur, 0)
		k.wireNxt = append(k.wireNxt, 0)
	}
	k.signals = append(k.signals, s)
	k.units[name] = unit
	if grew {
		// The append moved the slab backing; refresh every handle.
		k.repoint()
	} else if reg {
		s.curp, s.nxtp = &k.regCur[s.idx], &k.regNxt[s.idx]
	} else {
		s.curp, s.nxtp = &k.wireCur[s.idx], &k.wireNxt[s.idx]
	}
	return s
}

// Wire declares a combinational signal.
func (k *Kernel) Wire(name string, width int, unit Unit) *Signal {
	return k.addSignal(name, width, unit, false)
}

// Reg declares a clocked signal.
func (k *Kernel) Reg(name string, width int, unit Unit) *Signal {
	return k.addSignal(name, width, unit, true)
}

// Array declares a memory block of n words.
func (k *Kernel) Array(name string, width, n int, unit Unit) *MemArray {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("rtl: array %s: bad width %d", name, width))
	}
	if _, dup := k.units[name]; dup {
		panic(fmt.Sprintf("rtl: duplicate name %s", name))
	}
	off := len(k.arr)
	k.arr = append(k.arr, make([]uint64, n)...)
	a := &MemArray{off: off, name: name, width: width, fWord: -1}
	if width == 64 {
		a.mask = ^uint64(0)
	} else {
		a.mask = 1<<width - 1
	}
	a.data = k.arr[off : off+n : off+n]
	k.arrays = append(k.arrays, a)
	// Growing the slab may have moved its backing; re-point the existing
	// arrays' views (their slice lengths are unaffected by the move).
	for _, ar := range k.arrays[:len(k.arrays)-1] {
		sz := len(ar.data)
		ar.data = k.arr[ar.off : ar.off+sz : ar.off+sz]
	}
	k.units[name] = unit
	return a
}

// Comb appends a combinational process; processes run in registration
// order each cycle, so producers must be registered before consumers.
func (k *Kernel) Comb(p func()) { k.procs = append(k.procs, p) }

// Group is a precomputed set of registers that stall together. Holding a
// group re-schedules every member's committed value with one tight loop
// over slab indices, replacing a per-signal virtual dispatch on the
// pipeline-stall hot path.
type Group struct {
	k    *Kernel
	idxs []int32
}

// Group precomputes a hold group over the given clocked signals.
func (k *Kernel) Group(sigs ...*Signal) Group {
	g := Group{k: k, idxs: make([]int32, len(sigs))}
	for i, s := range sigs {
		if s.k != k {
			panic("rtl: group signal from another kernel")
		}
		if !s.reg {
			panic(fmt.Sprintf("rtl: group signal %s is not clocked", s.name))
		}
		g.idxs[i] = s.idx
	}
	return g
}

// Hold stalls every signal in the group (nxt = cur).
func (g Group) Hold() {
	cur, nxt := g.k.regCur, g.k.regNxt
	for _, i := range g.idxs {
		nxt[i] = cur[i]
	}
}

// Cycle evaluates all combinational processes once and commits every
// register with one bulk copy of the register slab.
func (k *Kernel) Cycle() {
	for _, p := range k.procs {
		p()
	}
	copy(k.regCur, k.regNxt)
	k.cycle++
}

// Now returns the number of elapsed cycles.
func (k *Kernel) Now() uint64 { return k.cycle }

// ResetState returns every signal, array and the cycle counter to the
// all-zero power-on state and clears any armed faults and bridges. The
// design structure (signals, arrays, processes) is untouched, so a kernel
// can be reset in place and re-run instead of being rebuilt.
func (k *Kernel) ResetState() {
	k.ClearFaults()
	k.ClearBridges()
	clear(k.regCur)
	clear(k.regNxt)
	clear(k.wireCur)
	clear(k.wireNxt)
	clear(k.arr)
	k.cycle = 0
}

// UnitOf returns the functional unit a signal or array name was declared
// under.
func (k *Kernel) UnitOf(name string) Unit { return k.units[name] }

// Signals returns the declared signals (stable order).
func (k *Kernel) Signals() []*Signal { return k.signals }

// Arrays returns the declared memory blocks (stable order).
func (k *Kernel) Arrays() []*MemArray { return k.arrays }

// String summarizes the design.
func (k *Kernel) String() string {
	bits := 0
	for _, s := range k.signals {
		bits += s.width
	}
	abits := 0
	for _, a := range k.arrays {
		abits += a.width * len(a.data)
	}
	return fmt.Sprintf("rtl{%d signals (%d bits), %d arrays (%d bits), %d procs}",
		len(k.signals), bits, len(k.arrays), abits, len(k.procs))
}

// SignalNamesByPrefix returns the names of signals and arrays under a
// hierarchy prefix, sorted.
func (k *Kernel) SignalNamesByPrefix(prefix string) []string {
	var out []string
	for name := range k.units {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
