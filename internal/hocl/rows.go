package hocl

import "sync/atomic"

// rows is a lock table with one row of n entries per memory server, each
// row allocated on the first access to its server: a cluster pays for the
// servers its locks touch, not for the fabric's capacity. The directory is
// sized for the capacity up front, and an installed row never moves, so a
// server added later gets its row on its first lock and no entry a thread
// contends on is ever copied.
type rows[T any] struct {
	n   int
	dir []atomic.Pointer[[]T]
}

func newRows[T any](servers, n int) *rows[T] {
	return &rows[T]{n: n, dir: make([]atomic.Pointer[[]T], servers)}
}

// at returns entry idx of server ms's row, installing the row first if no
// thread has. Racing installers CAS one row in; a loser drops its own.
func (r *rows[T]) at(ms uint16, idx int) *T {
	p := r.dir[ms].Load()
	if p == nil {
		row := make([]T, r.n)
		if r.dir[ms].CompareAndSwap(nil, &row) {
			p = &row
		} else {
			p = r.dir[ms].Load()
		}
	}
	return &(*p)[idx]
}

// each calls f on every entry of every installed row. A row installed after
// each passed its server is not visited; callers state why that is safe.
func (r *rows[T]) each(f func(*T)) {
	for i := range r.dir {
		if p := r.dir[i].Load(); p != nil {
			row := *p
			for j := range row {
				f(&row[j])
			}
		}
	}
}
