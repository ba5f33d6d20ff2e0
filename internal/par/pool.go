package par

import "sync"

// Pool is a reusable bounded worker pool: a fixed set of long-lived
// goroutines fed chunks of an index space through per-worker wake channels.
// It exists because a goroutine per chunk per call allocates (a goroutine, a
// closure frame and a range slice each time), which turns fine-grained hot
// loops — the per-pass traffic fan-out of the WSN simulator, the per-sweep
// products of NMF training — into allocation regressions. A Pool amortizes
// all of that at construction time: steady-state Run calls with a prebuilt
// fn perform zero heap allocations regardless of worker count. A one-shot
// fan-out is a pool made, run once and closed by the caller.
//
// Chunking is static and contiguous (partitionInto), chunk c of a run is
// always executed by the same worker slot c, and chunk 0 runs inline on the
// calling goroutine, so a run costs at most chunks-1 handoffs. The package
// determinism contract applies unchanged: a kernel must compute each index
// exactly as the sequential loop would and write only locations owned by
// that index, making results bit-identical to sequential for any worker
// count and any chunking.
//
// A Pool is safe for concurrent use: runs submitted from multiple
// goroutines are serialized internally. Run must not be called from inside
// a fn executing on the same pool (it would self-deadlock); compose nested
// parallelism by partitioning the outer loop only.
type Pool struct {
	workers int

	mu     sync.Mutex // serializes runs; held for a run's full duration
	ranges []Range    // chunk bounds of the current run, reused
	errs   []error    // per-chunk errors of the current RunErr, reused
	fn     func(start, end int)
	fnIdx  func(worker, start, end int)
	fnErr  func(worker, start, end int) error
	wake   []chan struct{} // wake[k] triggers worker k (chunk k+1)
	wg     sync.WaitGroup
	exited sync.WaitGroup // the background workers, for Close to wait on
	closed bool
}

// NewPool returns a pool bounded to Workers(workers) goroutines including
// the caller: workers-1 background workers are spawned parked on their wake
// channels. NewPool(1) (and NewPool(0), via the Workers norm) spawns
// nothing and every Run executes inline — the sequential path costs one
// function call.
func NewPool(workers int) *Pool {
	w := Workers(workers)
	p := &Pool{
		workers: w,
		ranges:  make([]Range, 0, w),
		errs:    make([]error, w),
		wake:    make([]chan struct{}, w-1),
	}
	p.exited.Add(len(p.wake))
	for k := range p.wake {
		p.wake[k] = make(chan struct{}, 1)
		go p.worker(k)
	}
	return p
}

// Workers returns the pool's parallelism bound (caller included). Callers
// holding per-worker scratch size it to this: RunIndexed worker ids are
// always in [0, Workers()).
func (p *Pool) Workers() int { return p.workers }

// worker k loops forever executing chunk k+1 of each run it is woken for.
func (p *Pool) worker(k int) {
	defer p.exited.Done()
	for range p.wake[k] {
		p.runChunk(k + 1)
		p.wg.Done()
	}
}

// runChunk executes one chunk of the current run with whichever fn variant
// the dispatching call installed.
func (p *Pool) runChunk(c int) {
	r := p.ranges[c]
	switch {
	case p.fn != nil:
		p.fn(r.Start, r.End)
	case p.fnIdx != nil:
		p.fnIdx(c, r.Start, r.End)
	case p.fnErr != nil:
		p.errs[c] = p.fnErr(c, r.Start, r.End)
	}
}

// chunkCount sizes a run: at most workers chunks, at least grain indices
// per chunk, never more chunks than indices. The count is a pure function
// of (n, grain, workers), so the partition — and with it, nothing at all,
// per the determinism contract — depends only on the pool configuration.
func (p *Pool) chunkCount(n, grain int) int {
	if grain < 1 {
		grain = 1
	}
	c := n / grain
	if c < 1 {
		c = 1
	}
	if c > p.workers {
		c = p.workers
	}
	if c > n {
		c = n
	}
	return c
}

// dispatch partitions [0, n) into chunks and wakes one worker per chunk
// beyond the first. Callers must hold p.mu and must have installed exactly
// one fn variant. It returns the number of chunks.
func (p *Pool) dispatch(n, chunks int) int {
	p.ranges = partitionInto(p.ranges, n, chunks)
	p.wg.Add(chunks - 1)
	for k := 0; k < chunks-1; k++ {
		p.wake[k] <- struct{}{}
	}
	return chunks
}

// finish runs chunk 0 inline via run, waits for the workers, and clears the
// installed fn variants. Callers must hold p.mu.
func (p *Pool) finish(run func(Range)) {
	run(p.ranges[0])
	p.wg.Wait()
	p.fn, p.fnIdx, p.fnErr = nil, nil, nil
}

// Run executes fn over [0, n) split into contiguous chunks across the pool.
// With one worker, one chunk, or a closed pool, fn runs inline on the
// calling goroutine. A steady-state call with a prebuilt fn allocates
// nothing.
func (p *Pool) Run(n int, fn func(start, end int)) {
	p.RunGrain(n, 1, fn)
}

// RunGrain is Run with an explicit minimum chunk size: fewer than grain
// indices per chunk are never dispatched, so an index space smaller than
// 2*grain runs inline. Use it on loops whose per-index work is too small to
// amortize a goroutine handoff (the simulator's per-pass transmit loop).
func (p *Pool) RunGrain(n, grain int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 {
		fn(0, n)
		return
	}
	p.mu.Lock()
	chunks := p.chunkCount(n, grain)
	if p.closed || chunks == 1 {
		p.mu.Unlock()
		fn(0, n)
		return
	}
	p.fn = fn
	p.dispatch(n, chunks)
	p.finish(func(r Range) { fn(r.Start, r.End) })
	p.mu.Unlock()
}

// RunIndexed is Run with the chunk's worker slot passed to fn: worker ids
// are dense in [0, chunks) ⊆ [0, Workers()), id 0 is the calling goroutine,
// and chunk c always runs on slot c — the hook for preallocated per-worker
// scratch (scratch[worker] is owned by exactly one goroutine for the whole
// run, race-free by construction).
func (p *Pool) RunIndexed(n int, fn func(worker, start, end int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 {
		fn(0, 0, n)
		return
	}
	p.mu.Lock()
	chunks := p.chunkCount(n, 1)
	if p.closed || chunks == 1 {
		p.mu.Unlock()
		fn(0, 0, n)
		return
	}
	p.fnIdx = fn
	p.dispatch(n, chunks)
	p.finish(func(r Range) { fn(0, r.Start, r.End) })
	p.mu.Unlock()
}

// RunErr is RunIndexed with error collection: each chunk may return one
// error and the error of the lowest-indexed chunk that failed is returned.
// Chunks are contiguous and ascending, so when fn processes its rows in
// order and stops at its first failure, the returned error is the one the
// sequential loop would have hit first — for any worker count.
func (p *Pool) RunErr(n int, fn func(worker, start, end int) error) error {
	if n <= 0 {
		return nil
	}
	if p.workers == 1 {
		return fn(0, 0, n)
	}
	p.mu.Lock()
	chunks := p.chunkCount(n, 1)
	if p.closed || chunks == 1 {
		p.mu.Unlock()
		return fn(0, 0, n)
	}
	for c := 0; c < chunks; c++ {
		p.errs[c] = nil
	}
	p.fnErr = fn
	p.dispatch(n, chunks)
	p.finish(func(r Range) { p.errs[0] = fn(0, r.Start, r.End) })
	var err error
	for c := 0; c < chunks; c++ {
		if p.errs[c] != nil {
			err = p.errs[c]
			break
		}
	}
	p.mu.Unlock()
	return err
}

// Close stops the background workers and returns once they have exited, so
// a per-call pool leaves no goroutine behind. It is idempotent, and the pool
// stays usable afterwards: subsequent runs execute inline sequentially, which
// is bit-identical by the determinism contract. Closing mid-run is safe — the
// run in flight completes first.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.wake {
		close(ch)
	}
	p.exited.Wait()
}

// partitionInto splits [0, n) into at most parts contiguous, near-equal,
// ascending ranges, written into a reused backing slice so steady-state
// dispatch does not allocate. Every index is covered exactly once and empty
// ranges are never emitted; the result is a pure function of (n, parts).
func partitionInto(dst []Range, n, parts int) []Range {
	dst = dst[:0]
	if n <= 0 {
		return dst
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	chunk := n / parts
	rem := n % parts
	start := 0
	for i := 0; i < parts; i++ {
		end := start + chunk
		if i < rem {
			end++
		}
		dst = append(dst, Range{Start: start, End: end})
		start = end
	}
	return dst
}
