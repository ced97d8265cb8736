package buffer

import (
	"fmt"

	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
)

// Columns is one window's arrivals to one table stored column by column:
// the column-encoded segment a table log keeps for arrivals whose rows no
// one else holds (Log.StageColumns). Int, Date and Bool columns are int64s,
// Float columns float64s and String columns the Go strings themselves,
// sharing their bytes with whoever built them; a NULL bitmap exists only
// once a NULL arrived. Every row is an insertion valid for every query, so
// no sign or bits are stored: a row costs its payload alone, and the int
// and float columns are pointer-free.
type Columns struct {
	n     int
	kinds []value.Kind
	// at[j] is column j's index among the columns stored in the same slab
	// as it: column j's values are slab[at[j]*n : (at[j]+1)*n].
	at     []int
	ints   []int64
	floats []float64
	strs   []string
	// nulls holds column j's NULL bit for row i at bit i of the words
	// nulls[j*words:(j+1)*words]; nil until the first NULL is set.
	nulls []uint64
}

// NewColumns returns n rows of the given column kinds, every value the
// zero of its kind until Set.
func NewColumns(kinds []value.Kind, n int) *Columns {
	c := &Columns{n: n, kinds: kinds, at: make([]int, len(kinds))}
	var ni, nf, ns int
	for j, k := range kinds {
		switch k {
		case value.KindInt, value.KindDate, value.KindBool:
			c.at[j], ni = ni, ni+1
		case value.KindFloat:
			c.at[j], nf = nf, nf+1
		case value.KindString:
			c.at[j], ns = ns, ns+1
		default:
			panic(fmt.Sprintf("buffer: no column encoding for kind %s", k))
		}
	}
	c.ints = make([]int64, ni*n)
	c.floats = make([]float64, nf*n)
	c.strs = make([]string, ns*n)
	return c
}

// Len returns the number of rows.
func (c *Columns) Len() int { return c.n }

// Width returns the number of columns.
func (c *Columns) Width() int { return len(c.kinds) }

// Set stores v as row i's column j. v is NULL or of the column's kind.
func (c *Columns) Set(i, j int, v value.Value) {
	if v.K == value.KindNull {
		if c.nulls == nil {
			c.nulls = make([]uint64, len(c.kinds)*c.words())
		}
		c.nulls[j*c.words()+i>>6] |= 1 << (uint(i) & 63)
		return
	}
	if v.K != c.kinds[j] {
		panic(fmt.Sprintf("buffer: %s value in %s column %d", v.K, c.kinds[j], j))
	}
	p := c.at[j]*c.n + i
	switch v.K {
	case value.KindFloat:
		c.floats[p] = v.F
	case value.KindString:
		c.strs[p] = v.S
	default:
		c.ints[p] = v.I
	}
}

func (c *Columns) words() int { return (c.n + 63) >> 6 }

// Gather writes rows of the segment into dst, one column at a time: row
// first+idx[k] (first+k when idx is nil), for k < n, lands at
// dst[k*Width():(k+1)*Width()], and only the listed columns are written
// (nil: all), the others left as they are. The values equal those Set
// stored.
func (c *Columns) Gather(dst []value.Value, first int, idx []int32, n int, cols []int) {
	w := len(c.kinds)
	if n == 0 {
		return
	}
	if cols != nil {
		for _, j := range cols {
			c.gather(dst[j:], w, first, idx, n, j)
		}
		return
	}
	for j := range c.kinds {
		c.gather(dst[j:], w, first, idx, n, j)
	}
}

// Column writes column j of rows [first, first+len(dst)) into dst: the
// column view a reader that evaluates a predicate needs, and no more.
func (c *Columns) Column(dst []value.Value, j, first int) {
	c.gather(dst, 1, first, nil, len(dst), j)
}

// gather writes column j of the rows Gather selects to dst[k*stride]. A
// numeric value is written field by field, its string header cleared only
// when set, so filling a reused slab stores no pointer the collector's
// write barrier must see.
func (c *Columns) gather(dst []value.Value, stride, first int, idx []int32, n, j int) {
	k := c.kinds[j]
	base := c.at[j]*c.n + first
	switch k {
	case value.KindString:
		src := c.strs[base:]
		for r := range n {
			i := r
			if idx != nil {
				i = int(idx[r])
			}
			dst[r*stride] = value.Str(src[i])
		}
	case value.KindFloat:
		src := c.floats[base:]
		for r := range n {
			i := r
			if idx != nil {
				i = int(idx[r])
			}
			v := &dst[r*stride]
			v.K, v.I, v.F = k, 0, src[i]
			if v.S != "" {
				v.S = ""
			}
		}
	default:
		src := c.ints[base:]
		for r := range n {
			i := r
			if idx != nil {
				i = int(idx[r])
			}
			v := &dst[r*stride]
			v.K, v.I, v.F = k, src[i], 0
			if v.S != "" {
				v.S = ""
			}
		}
	}
	if c.nulls == nil {
		return
	}
	bits := c.nulls[j*c.words():]
	for r := range n {
		i := first + r
		if idx != nil {
			i = first + int(idx[r])
		}
		if bits[i>>6]&(1<<(uint(i)&63)) != 0 {
			dst[r*stride] = value.Null
		}
	}
}

// Rows returns every row as a row of its own, carved with cap == len from
// one slab, so an append to one row cannot write into the next.
func (c *Columns) Rows() []value.Row {
	w := len(c.kinds)
	slab := make([]value.Value, c.n*w)
	c.Gather(slab, 0, nil, c.n, nil)
	rows := make([]value.Row, c.n)
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// insertBits is a base-table insertion's query bits: every query's.
const insertBits = mqo.Bitset(^uint64(0))

// materialize writes every row into slab and tups, reusing their arrays when
// large enough, and returns them: the open window's rows (Log.StageColumns).
func (c *Columns) materialize(slab []value.Value, tups []delta.Tuple) ([]value.Value, []delta.Tuple) {
	w := len(c.kinds)
	if cap(slab) < c.n*w {
		slab = make([]value.Value, c.n*w)
	}
	if cap(tups) < c.n {
		tups = make([]delta.Tuple, c.n)
	}
	slab, tups = slab[:c.n*w], tups[:c.n]
	c.Gather(slab, 0, nil, c.n, nil)
	for i := range tups {
		tups[i] = delta.Tuple{Row: slab[i*w : (i+1)*w : (i+1)*w], Bits: insertBits, Sign: delta.Insert}
	}
	return slab, tups
}
