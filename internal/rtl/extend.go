package rtl

import "fmt"

// This file extends the kernel beyond the paper's permanent-fault scope
// with the two mechanisms its §5 discusses: transient single-event upsets
// (the paper's declared future work) and saboteur-style multi-point
// faults — bridges between two nets — which the paper attributes to the
// more intrusive instrumentation technique of Baraza et al.

// FlipBit inverts the present value of a node once (a single-event upset).
// In a pipeline register the flip naturally lasts until the register is
// rewritten — one cycle for flow-through state, indefinitely for
// quasi-static state — exactly the behavior of a real SEU. Until a
// consumer samples the flipped word through Get or Read, the only raw
// copies of it (the clock-edge commit and Hold) stay inside the same net,
// so the flip is observable exactly where a witness records a read.
func (k *Kernel) FlipBit(n Node) error {
	bit := uint64(1) << n.Bit
	for _, s := range k.signals {
		if s.name != n.Name {
			continue
		}
		if n.Bit >= s.width || n.Word != 0 {
			return fmt.Errorf("rtl: flip %v out of range", n)
		}
		*s.curp ^= bit
		return nil
	}
	for _, a := range k.arrays {
		if a.name != n.Name {
			continue
		}
		if n.Bit >= a.width || n.Word < 0 || n.Word >= len(a.data) {
			return fmt.Errorf("rtl: flip %v out of range", n)
		}
		a.data[n.Word] ^= bit
		return nil
	}
	return fmt.Errorf("rtl: unknown node %v", n)
}

// BridgeKind selects the resolution function of a bridging fault.
type BridgeKind uint8

// Bridging fault resolution functions.
const (
	// WiredAND drives both nets with the AND of their drivers (dominant
	// low short).
	WiredAND BridgeKind = iota
	// WiredOR drives both nets with the OR of their drivers (dominant
	// high short).
	WiredOR
)

func (b BridgeKind) String() string {
	if b == WiredOR {
		return "wired-or"
	}
	return "wired-and"
}

// bridge links one bit of a signal to one bit of another signal.
type bridge struct {
	other    *Signal
	selfBit  int
	otherBit int
	kind     BridgeKind
}

// InjectBridge shorts bit a.Bit of signal a to bit b.Bit of signal b.
// Both nets subsequently read the resolved value. Only signal nodes (not
// memory-array cells) can be bridged.
func (k *Kernel) InjectBridge(a, b Node, kind BridgeKind) error {
	sa := k.findSignal(a.Name)
	sb := k.findSignal(b.Name)
	if sa == nil || sb == nil {
		return fmt.Errorf("rtl: bridge needs two signal nodes (%v, %v)", a, b)
	}
	if a.Bit >= sa.width || b.Bit >= sb.width {
		return fmt.Errorf("rtl: bridge bit out of range (%v, %v)", a, b)
	}
	if sa == sb && a.Bit == b.Bit {
		return fmt.Errorf("rtl: cannot bridge a bit to itself")
	}
	if sa.bridges == nil {
		k.bSigs = append(k.bSigs, sa)
	}
	if sb.bridges == nil && sb != sa {
		k.bSigs = append(k.bSigs, sb)
	}
	sa.bridges = append(sa.bridges, bridge{other: sb, selfBit: a.Bit, otherBit: b.Bit, kind: kind})
	sb.bridges = append(sb.bridges, bridge{other: sa, selfBit: b.Bit, otherBit: a.Bit, kind: kind})
	sa.updateSlow()
	sb.updateSlow()
	k.dirty = true
	return nil
}

func (k *Kernel) findSignal(name string) *Signal {
	for _, s := range k.signals {
		if s.name == name {
			return s
		}
	}
	return nil
}

// applyBridges resolves bridged bits on a sampled value.
func (s *Signal) applyBridges(v uint64) uint64 {
	for _, br := range s.bridges {
		selfBit := v >> br.selfBit & 1
		otherBit := *br.other.curp >> br.otherBit & 1
		var res uint64
		if br.kind == WiredOR {
			res = selfBit | otherBit
		} else {
			res = selfBit & otherBit
		}
		v = v&^(1<<br.selfBit) | res<<br.selfBit
	}
	return v
}

// ClearBridges removes all bridging faults. Like ClearFaults, a clean
// design is a single flag check and only the bridged nets are visited
// otherwise.
func (k *Kernel) ClearBridges() {
	if !k.dirty {
		return
	}
	for _, s := range k.bSigs {
		s.bridges = nil
		s.updateSlow()
	}
	k.bSigs = nil
	k.dirty = len(k.fSigs) > 0 || len(k.fArrs) > 0
}
