package main

import (
	"runtime"
	"runtime/debug"
	"time"
)

// freeMemory returns garbage from a torn-down set-up to the OS so the next
// set-up, and the peak resident set, do not carry it.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// sleepUntil waits until t: it sleeps through gaps longer than 2 ms and
// spins the rest. Go's timers wake an idle process on a millisecond tick,
// and a halted vCPU of the reference VM can take as long to wake; either
// would swamp the open loop's 250 us gaps and 100 us round trips.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - 1500*time.Microsecond)
		}
	}
}
