package block

import "fmt"

// Table is a sparse array of per-block (or per-number) state for indices
// 0…n−1, where n is fixed when the table is made: a device's block count,
// a filesystem's. It replaces a hash map keyed by block number. A lookup
// is two index operations, and an overwrite of a present entry allocates
// nothing.
//
// The indices are split into pages of tablePage entries. A page is made
// the first time one of its entries is set and is kept from then on; the
// directory, one pointer per page, grows to the highest page set, at most
// ⌈n/tablePage⌉ pointers. A 1 GB disk of 8K blocks costs at most a 2 KB
// directory plus 4 KB for each 4 MB region written, where a flat slice of
// every block would cost 1 MB up front. Block numbers are handed out from
// the low end, so the directory usually stays far below its bound.
//
// The zero value of T is the absent entry: Get reports it as not found,
// and setting it deletes.
type Table[T comparable] struct {
	dir   []*[tablePage]T
	n     int64
	count int
}

// tablePage is the number of entries in one page of a Table.
const tablePage = 512

const tableShift = 9 // log2(tablePage)

// NewTable returns an empty table for indices 0…n−1.
func NewTable[T comparable](n int64) *Table[T] {
	return &Table[T]{n: n}
}

// Get returns the entry at i and whether one is present. An index outside
// 0…n−1 has no entry.
func (t *Table[T]) Get(i int64) (T, bool) {
	var zero T
	// Nothing is stored at n or past it, so the directory bound suffices
	// (a negative i wraps past it too).
	p := uint64(i) >> tableShift
	if p >= uint64(len(t.dir)) || t.dir[p] == nil {
		return zero, false
	}
	v := t.dir[p][i&(tablePage-1)]
	return v, v != zero
}

// Set stores v at i, which must lie in 0…n−1.
func (t *Table[T]) Set(i int64, v T) {
	var zero T
	if v == zero {
		t.Delete(i)
		return
	}
	if uint64(i) >= uint64(t.n) {
		panic(fmt.Sprintf("block: table index %d outside 0…%d", i, t.n-1))
	}
	p := int(i >> tableShift)
	if p >= len(t.dir) {
		t.dir = append(t.dir, make([]*[tablePage]T, p+1-len(t.dir))...)
	}
	pg := t.dir[p]
	if pg == nil {
		pg = new([tablePage]T)
		t.dir[p] = pg
	}
	slot := &pg[i&(tablePage-1)]
	if *slot == zero {
		t.count++
	}
	*slot = v
}

// Delete removes the entry at i, if any.
func (t *Table[T]) Delete(i int64) {
	if _, ok := t.Get(i); ok {
		var zero T
		t.dir[i>>tableShift][i&(tablePage-1)] = zero
		t.count--
	}
}

// Len reports how many entries are present.
func (t *Table[T]) Len() int { return t.count }

// Range calls fn for every present entry in increasing index order, until
// fn returns false. fn may delete the entry it is given.
func (t *Table[T]) Range(fn func(i int64, v T) bool) {
	var zero T
	for p, pg := range t.dir {
		if pg == nil {
			continue
		}
		for j, v := range pg {
			if v != zero && !fn(int64(p)<<tableShift|int64(j), v) {
				return
			}
		}
	}
}
