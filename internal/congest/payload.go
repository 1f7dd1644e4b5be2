package congest

import "math/bits"

// Bit-size helpers. The CONGEST model charges per bit; the helpers below give
// the sizes used uniformly across the algorithms in internal/dist so that the
// measured TotalBits of a run reflects the paper's accounting (IDs and
// weights are O(log n)-bit words).

// BitsForID returns the number of bits needed to name one of n distinct
// values (at least 1): ⌈log2 n⌉, computed exactly on integers.
func BitsForID(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// BitsForInt returns the number of bits needed to represent the non-negative
// integer v (at least 1).
func BitsForInt(v int) int {
	if v < 0 {
		v = -v
	}
	if v <= 1 {
		return 1
	}
	return bits.Len(uint(v))
}

// BitsForWeight is the fixed word size charged for one edge weight. Weights
// are real numbers in the paper; a 64-bit word is the standard encoding.
const BitsForWeight = 64

// BitsForBool is the size of a single flag.
const BitsForBool = 1

// Message contents. A message carries its content in the two inline words
// W0/W1 under a Kind tag its node program defines, so building one
// allocates nothing and delivering one needs no type assertion. The wire
// cost is whatever Bits says; the encoding never changes the accounting.
//
// Encoding conventions used across internal/dist:
//   - a small non-negative integer is stored directly in a word (Int0/Int1);
//   - a flag is stored as 0/1 (WordFromBool/Bool0);
//   - two node IDs share one word via PackIDs/UnpackIDs (32 bits each);
//   - a float64 travels as math.Float64bits in a word;
//   - content wider than two words travels as several messages on the same
//     edge in the same round, which the per-edge budget charges together.

// Int0 returns W0 as a small non-negative integer.
func (m *Message) Int0() int { return int(m.W0) }

// Int1 returns W1 as a small non-negative integer.
func (m *Message) Int1() int { return int(m.W1) }

// Bool0 returns W0 as a flag (non-zero means true).
func (m *Message) Bool0() bool { return m.W0 != 0 }

// Bool1 returns W1 as a flag (non-zero means true).
func (m *Message) Bool1() bool { return m.W1 != 0 }

// WordFromBool encodes a flag as a payload word.
func WordFromBool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// PackIDs packs two node IDs into one payload word, 32 bits each. IDs are
// bounded by n, far below 2^32 for any simulable network.
func PackIDs(u, v int) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// UnpackIDs is the inverse of PackIDs.
func UnpackIDs(w uint64) (u, v int) { return int(w >> 32), int(uint32(w)) }

// NewWordMessage builds a message to the given neighbour: kind tags the
// encoding (an algorithm-defined constant), w0 and w1 are the inline
// payload words, and bits is the wire size charged. From is filled in by
// the simulator.
func NewWordMessage(to int, kind uint8, w0, w1 uint64, bits int) Message {
	return Message{To: to, Kind: kind, W0: w0, W1: w1, Bits: bits}
}

// NewQubitMessage builds a quantum-marked message carrying the given number
// of qubits, with kind, w0 and w1 as in NewWordMessage. Qubits are charged
// against the same per-edge bandwidth B as classical bits (the paper's
// quantum CONGEST model), but are accounted separately in
// Result.QuantumBits.
func NewQubitMessage(to int, kind uint8, w0, w1 uint64, qubits int) Message {
	return Message{To: to, Kind: kind, W0: w0, W1: w1, Bits: qubits, Quantum: true}
}

// Append constructors. A node appends its messages with the forms below
// into ctx.Outbox(), room in the simulator's send log:
//
//	return congest.BroadcastAllWordsInto(ctx.Outbox(), ctx, kind, w0, w1, bits), false
//
// Messages built there are committed where they are, with no allocation
// and no copy. Appending into a slice of the node's own with retained
// capacity allocates nothing either (pinned by allocs_test.go), but the
// simulator copies those messages into its log when Round returns; it never
// retains the slice, so the node may reuse it.

// AppendWordMessage appends one message to dst and returns the extended
// slice.
func AppendWordMessage(dst []Message, to int, kind uint8, w0, w1 uint64, bits int) []Message {
	return append(dst, Message{To: to, Kind: kind, W0: w0, W1: w1, Bits: bits})
}

// BroadcastWordsInto appends one identical message per listed neighbour to
// dst and returns the extended slice.
func BroadcastWordsInto(dst []Message, neighbors []int, kind uint8, w0, w1 uint64, bits int) []Message {
	for _, v := range neighbors {
		dst = append(dst, Message{To: v, Kind: kind, W0: w0, W1: w1, Bits: bits})
	}
	return dst
}

// BroadcastAllWordsInto appends one identical message per neighbour of ctx
// to dst and returns the extended slice. It walks the node's window of the
// run's int32 neighbour table.
func BroadcastAllWordsInto(dst []Message, ctx *Context, kind uint8, w0, w1 uint64, bits int) []Message {
	for _, v := range ctx.neighbors() {
		dst = append(dst, Message{To: int(v), Kind: kind, W0: w0, W1: w1, Bits: bits})
	}
	return dst
}
