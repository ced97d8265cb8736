// Package value defines the scalar value and row representations used
// throughout the engine. Values are small tagged unions rather than
// interfaces so that rows can be hashed and compared without boxing.
package value

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

const (
	// KindNull is the absence of a value. Nulls compare less than
	// everything else and are equal to each other for grouping purposes.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is an immutable byte string.
	KindString
	// KindBool is a boolean.
	KindBool
	// KindDate is a date stored as days since the epoch.
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of this kind participate in arithmetic.
func (k Kind) Numeric() bool {
	return k == KindInt || k == KindFloat
}

// Value is a scalar runtime value. The zero value is NULL.
type Value struct {
	// S holds the payload for KindString.
	S string
	// I holds the payload for KindInt, KindDate and KindBool (0/1).
	I int64
	// F holds the payload for KindFloat.
	F float64
	// K is the type tag.
	K Kind
}

// Null is the NULL value.
var Null = Value{K: KindNull}

// Int returns an integer value.
func Int(v int64) Value { return Value{K: KindInt, I: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{K: KindFloat, F: v} }

// Str returns a string value.
func Str(v string) Value { return Value{K: KindString, S: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// Date returns a date value from days since the epoch.
func Date(days int64) Value { return Value{K: KindDate, I: days} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Truth reports whether v is a true boolean. NULL and false are both false.
func (v Value) Truth() bool { return v.K == KindBool && v.I == 1 }

// AsFloat converts a numeric value to float64. Non-numeric values yield 0.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindDate, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// AsInt converts a numeric value to int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt, KindDate, KindBool:
		return v.I
	case KindFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// String renders the value for display and for deterministic test output.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I == 1 {
			return "true"
		}
		return "false"
	case KindDate:
		return fmt.Sprintf("date(%d)", v.I)
	default:
		return "?"
	}
}

// Compare orders two values. NULL sorts before everything; values of
// different numeric kinds are compared as floats; otherwise kinds must match.
// The result is -1, 0 or +1.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == KindNull && b.K == KindNull:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.K != b.K {
		if a.K.Numeric() && b.K.Numeric() {
			return cmpFloat(a.AsFloat(), b.AsFloat())
		}
		// Incomparable kinds order deterministically by kind tag so that
		// Compare remains a total order.
		return cmpInt(int64(a.K), int64(b.K))
	}
	switch a.K {
	case KindInt, KindDate, KindBool:
		return cmpInt(a.I, b.I)
	case KindFloat:
		return cmpFloat(a.F, b.F)
	case KindString:
		return strings.Compare(a.S, b.S)
	default:
		return 0
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports value equality under Compare semantics. Same-kind cases
// are answered directly — this is the inner comparison of join-probe chain
// walks and state updates — and each branch reproduces Compare exactly,
// including cmpFloat's treatment of NaN (incomparable, therefore "equal").
func Equal(a, b Value) bool {
	if a.K == b.K {
		switch a.K {
		case KindInt, KindDate, KindBool:
			return a.I == b.I
		case KindFloat:
			return !(a.F < b.F) && !(a.F > b.F)
		case KindString:
			return a.S == b.S
		case KindNull:
			return true
		}
	}
	return Compare(a, b) == 0
}

// Row is a tuple of values.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a pipe-separated list.
func (r Row) String() string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// Equal reports whether two rows are element-wise equal. The loop inlines
// Equal's same-kind cases: this is the identity test of the join's state
// update — once per entry walked on a short chain, once to verify an
// identity-index hit on a long one (see IdentityHash) — where rows come
// from one table and kinds match column-for-column.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		a, b := r[i], o[i]
		if a.K != b.K {
			if Compare(a, b) != 0 {
				return false
			}
			continue
		}
		switch a.K {
		case KindString:
			if a.S != b.S {
				return false
			}
		case KindFloat:
			// Compare semantics: NaN is incomparable, therefore "equal".
			if a.F < b.F || a.F > b.F {
				return false
			}
		case KindNull:
		default: // Int, Date, Bool
			if a.I != b.I {
				return false
			}
		}
	}
	return true
}

var hashSeed = maphash.MakeSeed()

// Hasher incrementally hashes values into a key suitable for map grouping.
type Hasher struct {
	h maphash.Hash
}

// NewHasher returns a hasher using the process-wide seed.
func NewHasher() *Hasher {
	h := &Hasher{}
	h.h.SetSeed(hashSeed)
	return h
}

// Reset clears the hasher state.
func (h *Hasher) Reset() { h.h.Reset() }

// WriteValue mixes one value into the hash. Numeric values hash by their
// float64 image so that Int(2) and Float(2) group together, matching
// Compare. The byte stream fed to maphash is unchanged from the
// byte-at-a-time version (maphash depends only on the sequence, not on
// write boundaries); the class tag and float image go down in one write.
func (h *Hasher) WriteValue(v Value) {
	switch v.K {
	case KindNull:
		h.h.WriteByte(byte(hashClass(v.K)))
	case KindString:
		h.h.WriteByte(byte(hashClass(v.K)))
		h.h.WriteString(v.S)
	default:
		var buf [9]byte
		buf[0] = byte(hashClass(v.K))
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.AsFloat()))
		h.h.Write(buf[:])
	}
}

// hashClass collapses kinds that compare as equal into one class.
func hashClass(k Kind) uint8 {
	switch k {
	case KindInt, KindFloat:
		return 1
	case KindString:
		return 2
	case KindBool:
		return 3
	case KindDate:
		return 4
	default:
		return 0
	}
}

// Sum returns the accumulated hash.
func (h *Hasher) Sum() uint64 { return h.h.Sum64() }

// RowHash resets the hasher, mixes in a full row and returns its hash.
// Reusing one Hasher across rows avoids a per-row allocation.
func (h *Hasher) RowHash(r Row) uint64 {
	h.h.Reset()
	for _, v := range r {
		h.WriteValue(v)
	}
	return h.h.Sum64()
}

// HashCols hashes one logical row per selected index out of column vectors:
// for each i in sel, the row (cols[0][i], cols[1][i], ...) is hashed exactly
// as RowHash would hash it and the result stored at out[i]. This is the
// columnar hash path: an operator evaluates its key expressions
// column-at-a-time over a chunk, then hashes the whole key column set in one
// pass.
func (h *Hasher) HashCols(cols [][]Value, sel []int32, out []uint64) {
	if len(cols) == 1 {
		col := cols[0]
		for _, i := range sel {
			h.h.Reset()
			h.WriteValue(col[i])
			out[i] = h.h.Sum64()
		}
		return
	}
	for _, i := range sel {
		h.h.Reset()
		for _, col := range cols {
			h.WriteValue(col[i])
		}
		out[i] = h.h.Sum64()
	}
}

// HashRow hashes a full row.
func HashRow(r Row) uint64 {
	var h Hasher
	h.h.SetSeed(hashSeed)
	return h.RowHash(r)
}

// IdentityHash hashes a row consistently with Row.Equal: any two rows that
// Equal reports equal hash alike. Numeric kinds hash by their float64 image
// (Int(2) ≡ Float(2)) with -0 folded into +0, which compare equal although
// their bits — and their WriteValue hashes — differ. ok is false for a row
// holding a float NaN: Equal matches a NaN against every number, so no hash
// can be consistent with it and the caller must compare instead. Unequal
// rows may collide; Equal is the arbiter.
func IdentityHash(r Row) (sum uint64, ok bool) {
	const mul = 0x9E3779B97F4A7C15
	sum = mul
	for _, v := range r {
		var x uint64
		switch v.K {
		case KindNull:
		case KindString:
			x = maphash.String(hashSeed, v.S)
		default:
			f := v.AsFloat()
			if f != f {
				return 0, false
			}
			if f == 0 {
				f = 0 // -0 == 0: hash both as +0
			}
			x = math.Float64bits(f)
		}
		sum = (sum ^ x ^ uint64(hashClass(v.K))<<58) * mul
		sum ^= sum >> 29
	}
	return sum, true
}

// AppendKey appends r's deterministic key encoding (see Key) to buf and
// returns the extended slice. Hot paths keep a scratch buffer and look maps
// up with string(buf), which the compiler compiles without allocating.
func AppendKey(buf []byte, r Row) []byte {
	for _, v := range r {
		buf = append(buf, byte('0'+hashClass(v.K)))
		switch v.K {
		case KindString:
			buf = strconv.AppendInt(buf, int64(len(v.S)), 10)
			buf = append(buf, ':')
			buf = append(buf, v.S...)
		case KindNull:
		default:
			buf = strconv.AppendFloat(buf, v.AsFloat(), 'b', -1, 64)
		}
		buf = append(buf, ';')
	}
	return buf
}

// Key returns a deterministic string key for a row, used for map grouping
// where exact equality (not just hash equality) is required.
func Key(r Row) string {
	return string(AppendKey(nil, r))
}

// KeyEqual reports whether two values have identical AppendKey encodings
// without materializing them — the hot-path replacement for encoding both
// sides and comparing bytes. The semantics are the grouping key rules
// (shared with internal/ordset): numeric kinds collapse to their float64
// image, ±0.0 are distinct keys (their bit patterns, and therefore their
// encodings and hashes, differ), and all NaNs are one key.
func KeyEqual(a, b Value) bool {
	ca, cb := hashClass(a.K), hashClass(b.K)
	if ca != cb {
		return false
	}
	switch ca {
	case 0: // NULL
		return true
	case 2: // strings compare by content
		return a.S == b.S
	default:
		fa, fb := a.AsFloat(), b.AsFloat()
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return math.IsNaN(fa) && math.IsNaN(fb)
		}
		return math.Float64bits(fa) == math.Float64bits(fb)
	}
}

// RowKeyEqual reports whether two rows have identical AppendKey encodings.
func RowKeyEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !KeyEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
