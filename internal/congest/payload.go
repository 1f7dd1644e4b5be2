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

// Word-encoded payloads. A message whose content fits two 64-bit words can
// travel inline in Message.W0/W1 under an algorithm-defined Kind tag instead
// of being boxed into Payload — no allocation when the message is built, no
// type assertion when it is delivered. The wire cost is whatever Bits says
// in either representation; the encoding never changes the accounting.
//
// Encoding conventions used across internal/dist:
//   - a small non-negative integer is stored directly in a word (Int0/Int1);
//   - a flag is stored as 0/1 (WordFromBool/Bool0);
//   - two node IDs share one word via PackIDs/UnpackIDs (32 bits each);
//   - a float64 travels as math.Float64bits in a word.
//
// KindBoxed is the zero value, so plain NewMessage/Broadcast payloads remain
// boxed without any change.
const KindBoxed uint8 = 0

// IsWord reports whether the message is word-encoded (Kind != KindBoxed).
func (m *Message) IsWord() bool { return m.Kind != KindBoxed }

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

// NewMessage builds a boxed message to the given neighbour with an explicit
// bit size. From is filled in by the simulator.
func NewMessage(to int, payload any, bits int) Message {
	return Message{To: to, Payload: payload, Bits: bits}
}

// NewWordMessage builds a word-encoded message to the given neighbour: kind
// tags the encoding (an algorithm-defined constant >= 1), w0 and w1 are the
// inline payload words, and bits is the wire size charged, exactly as for a
// boxed message. From is filled in by the simulator.
func NewWordMessage(to int, kind uint8, w0, w1 uint64, bits int) Message {
	return Message{To: to, Kind: kind, W0: w0, W1: w1, Bits: bits}
}

// NewQubitMessage builds a quantum-marked message carrying the given number
// of qubits. Qubits are charged against the same per-edge bandwidth B as
// classical bits (the paper's quantum CONGEST model), but are accounted
// separately in Result.QuantumBits.
func NewQubitMessage(to int, payload any, qubits int) Message {
	return Message{To: to, Payload: payload, Bits: qubits, Quantum: true}
}

// Broadcast builds one identical message per listed neighbour.
func Broadcast(neighbors []int, payload any, bits int) []Message {
	out := make([]Message, 0, len(neighbors))
	for _, v := range neighbors {
		out = append(out, NewMessage(v, payload, bits))
	}
	return out
}

// BroadcastAll builds one identical message per neighbour of ctx, in
// ascending neighbour order. The returned slice is owned by the caller and
// may be returned again in later rounds (the simulator never mutates a
// node's outbox), but a node that builds its messages each round should
// use BroadcastAllInto(ctx.Outbox(), ...), which allocates nothing.
func BroadcastAll(ctx *Context, payload any, bits int) []Message {
	return Broadcast(ctx.neighbors(), payload, bits)
}

// BroadcastAllWords is BroadcastAll for a word-encoded payload; its
// allocation-free form is BroadcastAllWordsInto(ctx.Outbox(), ...).
func BroadcastAllWords(ctx *Context, kind uint8, w0, w1 uint64, bits int) []Message {
	return BroadcastWordsInto(make([]Message, 0, ctx.Degree()), ctx.neighbors(), kind, w0, w1, bits)
}

// Append variants. The constructors above allocate a fresh slice per call;
// a node should instead append its messages with the Into forms below into
// ctx.Outbox(), room in the simulator's send log:
//
//	return congest.BroadcastAllWordsInto(ctx.Outbox(), ctx, kind, w0, w1, bits), false
//
// Messages built there are committed where they are, with no allocation
// and no copy. Appending into a slice of the node's own with retained
// capacity allocates nothing either (pinned by allocs_test.go), but the
// simulator copies those messages into its log when Round returns; it never
// retains the slice, so the node may reuse it.

// AppendMessage appends one boxed message to dst and returns the extended
// slice.
func AppendMessage(dst []Message, to int, payload any, bits int) []Message {
	return append(dst, Message{To: to, Payload: payload, Bits: bits})
}

// AppendWordMessage appends one word-encoded message to dst and returns the
// extended slice.
func AppendWordMessage(dst []Message, to int, kind uint8, w0, w1 uint64, bits int) []Message {
	return append(dst, Message{To: to, Kind: kind, W0: w0, W1: w1, Bits: bits})
}

// BroadcastInto appends one identical boxed message per listed neighbour to
// dst and returns the extended slice.
func BroadcastInto(dst []Message, neighbors []int, payload any, bits int) []Message {
	for _, v := range neighbors {
		dst = append(dst, Message{To: v, Payload: payload, Bits: bits})
	}
	return dst
}

// BroadcastWordsInto appends one identical word-encoded message per listed
// neighbour to dst and returns the extended slice.
func BroadcastWordsInto(dst []Message, neighbors []int, kind uint8, w0, w1 uint64, bits int) []Message {
	for _, v := range neighbors {
		dst = append(dst, Message{To: v, Kind: kind, W0: w0, W1: w1, Bits: bits})
	}
	return dst
}

// BroadcastAllInto appends one identical boxed message per neighbour of ctx
// to dst and returns the extended slice.
func BroadcastAllInto(dst []Message, ctx *Context, payload any, bits int) []Message {
	return BroadcastInto(dst, ctx.neighbors(), payload, bits)
}

// BroadcastAllWordsInto appends one identical word-encoded message per
// neighbour of ctx to dst and returns the extended slice.
func BroadcastAllWordsInto(dst []Message, ctx *Context, kind uint8, w0, w1 uint64, bits int) []Message {
	return BroadcastWordsInto(dst, ctx.neighbors(), kind, w0, w1, bits)
}
