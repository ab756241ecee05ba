// Package a is the seeded-bad golden package for the hotalloc analyzer:
// every allocation inside a //bfs:hot loop must be flagged; cold loops and
// justified sites must stay quiet.
package a

func hotFor(n int, acc []uint64) []uint64 {
	scratch := make([]uint64, 8) // cold code: quiet
	_ = scratch
	//bfs:hot
	for i := 0; i < n; i++ {
		buf := make([]uint64, 8) // want `call to make allocates inside a //bfs:hot loop`
		_ = buf
		p := new(int) // want `call to new allocates inside a //bfs:hot loop`
		_ = p
		s := []int{i} // want `slice literal allocates inside a //bfs:hot loop`
		_ = s
		m := map[int]bool{} // want `map literal allocates inside a //bfs:hot loop`
		_ = m
		f := func() int { return i } // want `closure allocates inside a //bfs:hot loop`
		_ = f()
		acc = append(acc, uint64(i)) // want `call to append allocates inside a //bfs:hot loop`
		view := acc[:0]              // reslicing: quiet
		_ = view
	}
	return acc
}

func hotRange(rows [][]uint64) int {
	total := 0
	for _, r := range rows { //bfs:hot
		for range r { // nested loop inherits the hot region
			total += len(make([]int, 1)) // want `call to make allocates inside a //bfs:hot loop`
		}
	}
	return total
}

func coldLoop(n int) {
	for i := 0; i < n; i++ {
		_ = make([]int, 1) // unannotated loop: quiet
	}
}

// Engine mimics the core execution engine: its methods are the arena
// borrow/return path and must stay quiet inside hot loops, even when they
// are named like constructors.
type Engine struct{}

func (e *Engine) NewBatchView() []int32       { return nil }
func (e *Engine) borrowState(n int) []int     { return nil }
func NewScratch(n int) []uint64               { return nil }
func createBuffers(n int) ([]int, []int)      { return nil, nil }
func CreateTaskList(n, split int) []int       { return nil }
func (e *Engine) ReleaseLevels(rs ...[]int32) {}

func hotConstructors(n int, e *Engine) {
	//bfs:hot
	for i := 0; i < n; i++ {
		s := NewScratch(i) // want `call to constructor NewScratch allocates inside a //bfs:hot loop`
		_ = s
		tl := CreateTaskList(n, 64) // want `call to constructor CreateTaskList allocates inside a //bfs:hot loop`
		_ = tl
		b1, b2 := createBuffers(i) // lower-case: not the constructor convention, quiet
		_, _ = b1, b2
		st := e.borrowState(i) // arena borrow: quiet
		_ = st
		row := e.NewBatchView() // Engine method: exempt even with a New prefix
		e.ReleaseLevels(row)
	}
}

func justified(n int) []int {
	var out []int
	//bfs:hot
	for i := 0; i < n; i++ {
		if i == 0 {
			out = append(out, i) //bfs:alloc-ok grows at most once per run
		}
	}
	return out
}
