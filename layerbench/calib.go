package main

import (
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. On a shared host the machine's own speed
// drifts: other tenants contend for the cores, caches and memory, and the
// same diagnosis loop has run at two thirds, even a third, of its usual
// rate for minutes at a time. A time measured on such a host says as
// much about the neighbours as about the program. So every run also
// times a fixed calibration loop, which runs no code of the program under
// test, and reports each gated time scaled to a reference host speed:
//
//	reported = measured / (median sample time / calibRefMS)
//
// One calibration sample is three passes of random reads and writes, over
// 32 KB, 2 MB and 8 MB: an L1-sized pass follows a core that runs slowly,
// the larger ones follow contention for the caches and memory, and
// neither alone follows both. Over four-minute stretches in which a
// corpus pass over the scenarios drifted 1.5x, each sample's time had a
// slope of 0.8 to 1.2 against the pass time and the scaled pass time
// varied 2.5 to 4 times less than the measured one.
//
// corpus times samples after every pass over its items; serve times
// one every calibInterval on a goroutine of its client during the open
// loop. Either way the samples follow the host through the run. Both
// also time samples between their set-up passes, and setup_s is scaled
// by those. A sample's time is the CPU time of its thread, so that
// waiting for the CPU while the server runs does not count. For the same
// reason the factor does not cover waiting: when a slow host makes
// serve's requests queue or its threads wake late, its latencies grow
// by more than the factor. The buffer is mapped outside the Go heap,
// with small pages, and stays mapped and resident for the whole run: it
// does not raise the collector's heap goal, and it adds exactly
// calibBytes to the benchmark's resident set, which corpus's
// peak_rss_mb subtracts. The report prints the measured figures and the
// factors beside the scaled ones.

const (
	// calibIters is the length of each of a sample's three passes.
	calibIters = 50_000
	// calibRefMS is the reference host's median sample time; a host that
	// runs a sample in this time has factor 1.
	calibRefMS = 2.5
	// calibBytes is the largest pass's working set: 8 MB, larger than a
	// core's L2 cache, much smaller than the shared L3. The smaller
	// passes use its first 32 KB and 2 MB.
	calibBytes = 8 << 20
	// calibInterval is serve's sampling period.
	calibInterval = 100 * time.Millisecond
	// calibPerPass is how many samples corpus times after each pass,
	// and both workloads after each set-up pass.
	calibPerPass = 2
	// madvNoHugePage is Linux's MADV_NOHUGEPAGE.
	madvNoHugePage = 15
	// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
	clockThreadCPUTimeID = 3
)

// calibSink keeps the loop's result live.
var calibSink uint64

// calibLoop runs one calibration pass over buf (a power of two long)
// and returns the CPU time it took in ms. The caller locks its goroutine
// to the thread.
func calibLoop(buf []uint64) float64 {
	t0 := threadCPU()
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint64
	mask := uint64(len(buf) - 1)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		switch x >> 62 {
		case 0:
			acc += buf[j]
		case 1:
			buf[j] ^= acc
		case 2:
			acc ^= buf[(j+64)&mask] + uint64(i)
		default:
			buf[(j*3)&mask] += x
		}
	}
	calibSink = acc
	return float64(threadCPU()-t0) / 1e6
}

// threadCPU is the calling thread's CPU time in nanoseconds. CPU time,
// not wall time, so that a sample taken while other threads hold the
// CPU (serve's server) measures the host's speed, not the wait.
func threadCPU() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// hostSpeed holds the calibration buffer and one run's sample times.
type hostSpeed struct {
	mem     []byte
	buf     []uint64
	samples []float64
}

// open maps the calibration buffer and faults every page in.
func (h *hostSpeed) open() error {
	mem, err := syscall.Mmap(-1, 0, calibBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return fmt.Errorf("calibration buffer: %w", err)
	}
	// Small pages only: whether the kernel finds huge pages for the
	// buffer varies from run to run and changes the loop's speed.
	if err := syscall.Madvise(mem, madvNoHugePage); err != nil {
		syscall.Munmap(mem)
		return fmt.Errorf("calibration buffer: %w", err)
	}
	h.mem = mem
	h.buf = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibBytes/8)
	for i := range h.buf {
		h.buf[i] = uint64(i)
	}
	return nil
}

// close unmaps the calibration buffer.
func (h *hostSpeed) close() {
	if h.mem != nil {
		syscall.Munmap(h.mem)
		h.mem, h.buf = nil, nil
	}
}

// sample times n calibration samples.
func (h *hostSpeed) sample(n int) {
	for i := 0; i < n; i++ {
		h.samples = append(h.samples, h.once())
	}
}

// once runs one calibration sample — passes over the first 32 KB, 2 MB
// and 8 MB of the buffer — and returns its CPU time in ms. Between the
// passes it yields, so that on one P no other goroutine waits longer
// than a pass (under a millisecond).
func (h *hostSpeed) once() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ms := calibLoop(h.buf[:4<<10])
	runtime.Gosched()
	ms += calibLoop(h.buf[:256<<10])
	runtime.Gosched()
	return ms + calibLoop(h.buf[:1<<20])
}

// during takes one sample every interval on its own goroutine until stop
// is called, which waits for the sampler to end.
func (h *hostSpeed) during(interval time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				h.samples = append(h.samples, h.once())
			}
		}
	}()
	return func() { close(quit); <-done }
}

// factor is how much slower than the reference host this run's host
// was while it measured: see factorOf.
func (h *hostSpeed) factor() float64 { return factorOf(h.samples) }

// factorOf is how much slower than the reference host a host was that
// took the samples: their median over calibRefMS (1 without samples).
func factorOf(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return median(samples) / calibRefMS
}

// printCalib reports one set of calibration samples.
func printCalib(w io.Writer, phase string, samples []float64) {
	fmt.Fprintf(w, "host speed (%s): calibration sample median %.4f ms over %d samples, reference %.4g ms, factor %.4f\n",
		phase, median(samples), len(samples), calibRefMS, factorOf(samples))
}
