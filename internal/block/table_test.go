package block

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestTableMatchesMapModel runs random Set/Delete/Get/Range sequences
// against a map model, over table sizes around the page size and indices
// drawn mostly from page edges and the last index.
func TestTableMatchesMapModel(t *testing.T) {
	for _, n := range []int64{1, 2, tablePage - 1, tablePage, tablePage + 1, 3*tablePage + 7, 4 * tablePage} {
		hot := []int64{0, 1, n - 1, n - 2}
		for e := int64(tablePage); e <= n; e += tablePage {
			hot = append(hot, e-1, e, e+1)
		}
		hot = slices.DeleteFunc(hot, func(i int64) bool { return i < 0 || i >= n })
		for seed := uint64(0); seed < 20; seed++ {
			r := rand.New(rand.NewPCG(seed, uint64(n)))
			tab := NewTable[*int](n)
			model := map[int64]*int{}
			for step := 0; step < 400; step++ {
				i := hot[r.IntN(len(hot))]
				if r.IntN(3) == 0 {
					i = r.Int64N(n)
				}
				switch r.IntN(4) {
				case 0, 1:
					v := new(int)
					*v = step
					tab.Set(i, v)
					model[i] = v
				case 2:
					tab.Delete(i)
					delete(model, i)
				case 3:
					tab.Set(i, nil) // the zero value deletes too
					delete(model, i)
				}
				got, ok := tab.Get(i)
				want, wok := model[i]
				if ok != wok || got != want {
					t.Fatalf("n=%d seed=%d step %d: Get(%d) = %v,%v, model %v,%v", n, seed, step, i, got, ok, want, wok)
				}
				if tab.Len() != len(model) {
					t.Fatalf("n=%d seed=%d step %d: Len = %d, model %d", n, seed, step, tab.Len(), len(model))
				}
			}
			for _, i := range hot {
				got, ok := tab.Get(i)
				if want, wok := model[i]; ok != wok || got != want {
					t.Fatalf("n=%d seed=%d: Get(%d) = %v,%v, model %v,%v", n, seed, i, got, ok, want, wok)
				}
			}
			for _, i := range []int64{-1, n, n + tablePage, -tablePage} {
				if _, ok := tab.Get(i); ok {
					t.Fatalf("n=%d: Get(%d) outside the table found an entry", n, i)
				}
			}
			var keys []int64
			for k := range model {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			var ranged []int64
			tab.Range(func(i int64, v *int) bool {
				if v != model[i] {
					t.Fatalf("n=%d seed=%d: Range gave %v at %d, model %v", n, seed, v, i, model[i])
				}
				ranged = append(ranged, i)
				return true
			})
			if !slices.Equal(ranged, keys) {
				t.Fatalf("n=%d seed=%d: Range visited %v, model holds %v", n, seed, ranged, keys)
			}
			// Range stops when fn says so, and fn may delete what it visits.
			visits := 0
			tab.Range(func(int64, *int) bool { visits++; return false })
			if visits != min(1, len(keys)) {
				t.Fatalf("n=%d: Range went on after false (%d visits)", n, visits)
			}
			tab.Range(func(i int64, _ *int) bool { tab.Delete(i); return true })
			if tab.Len() != 0 {
				t.Fatalf("n=%d: %d entries left after deleting each in Range", n, tab.Len())
			}
		}
	}
}

// TestTableSetOutsidePanics: a store past n−1 is a caller's bug.
func TestTableSetOutsidePanics(t *testing.T) {
	tab := NewTable[*int](tablePage + 1)
	for _, i := range []int64{-1, tablePage + 1, 2 * tablePage} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Set(%d) on a %d-entry table did not panic", i, tablePage+1)
				}
			}()
			tab.Set(i, new(int))
		}()
	}
}

// TestTableOverwriteAllocs: once a page exists, storing into it allocates
// nothing.
func TestTableOverwriteAllocs(t *testing.T) {
	tab := NewTable[*int](1 << 17)
	v, w := new(int), new(int)
	tab.Set(1<<16, v)
	i := int64(0)
	if a := testing.AllocsPerRun(100, func() {
		i = (i + 1) % tablePage
		tab.Set(1<<16+i, w)
		tab.Delete(1<<16 + i)
		tab.Get(1 << 16)
	}); a != 0 {
		t.Fatalf("%.1f allocations per store into an existing page, want 0", a)
	}
}
