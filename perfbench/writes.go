package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// writeOp is one scheduled registry write: register the pooled task
// when it is absent, delete it when present.
type writeOp struct {
	due    time.Duration
	id     string
	delete bool
}

// writeSchedule draws a seeded Poisson stream of writes toggling tasks
// of a pool of n IDs; the same arguments give the same schedule.
func writeSchedule(seed int64, prefix string, n int, rate float64, dur time.Duration) []writeOp {
	rng := rand.New(rand.NewSource(seed))
	present := make([]bool, n)
	var ops []writeOp
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return ops
		}
		k := rng.Intn(n)
		ops = append(ops, writeOp{due: due, id: fmt.Sprintf("%s-%02d", prefix, k), delete: present[k]})
		present[k] = !present[k]
	}
}

// writeRec is what the writer observed for one write.
type writeRec struct {
	ok  bool
	ack time.Time // when the 202/204 was read
	gen uint64    // registry generation the write produced
}

// runWrites plays ops against the stack's task API from a single
// goroutine; with one writer, the registry generation read right after
// an acknowledgement is exactly the generation that write produced.
func runWrites(st *stack, ops []writeOp, stop <-chan struct{}) []writeRec {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	recs := make([]writeRec, 0, len(ops))
	start := time.Now()
	for _, op := range ops {
		if d := time.Until(start.Add(op.due)); d > 0 {
			select {
			case <-stop:
				return recs
			case <-time.After(d):
			}
		}
		var status int
		var err error
		if op.delete {
			status, err = deleteTask(client, st.writes, op.id)
		} else {
			status, err = postTask(client, st.writes, taskSpec(op.id))
		}
		rec := writeRec{ack: time.Now(), gen: st.gen()}
		rec.ok = err == nil && (status == http.StatusAccepted || status == http.StatusNoContent)
		recs = append(recs, rec)
	}
	return recs
}

// runProbe plays bursts of size back-to-back writes, waiting after each
// burst for a plan that covers it: the write-to-plan latency of a
// batch of registrations on a stack with no other churn.
func runProbe(st *stack, w *epochWatch, seed int64, bursts, size int) []writeRec {
	ops := writeSchedule(seed, "probe", 16, 1, time.Duration(bursts*size*100)*time.Second)[:bursts*size]
	var recs []writeRec
	for b := 0; b < bursts; b++ {
		burst := append([]writeOp(nil), ops[b*size:(b+1)*size]...)
		for i := range burst {
			burst[i].due = 0
		}
		recs = append(recs, runWrites(st, burst, nil)...)
		last := recs[len(recs)-1].gen
		for deadline := time.Now().Add(5 * time.Second); !w.covers(last) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	return recs
}

// epochWatch polls the stack's published plan and records every new one.
type epochWatch struct {
	mu   sync.Mutex
	recs []epochRec
	stop chan struct{}
	done chan struct{}
}

func watchEpochs(read func() (epochRec, bool)) *epochWatch {
	w := &epochWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var last uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if r, ok := read(); ok && r.n != last {
				last = r.n
				w.mu.Lock()
				w.recs = append(w.recs, r)
				w.mu.Unlock()
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// covers reports whether some recorded plan covers generation gen.
func (w *epochWatch) covers(gen uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.recs) > 0 && w.recs[len(w.recs)-1].gen >= gen
}

func (w *epochWatch) close() []epochRec {
	close(w.stop)
	<-w.done
	return w.recs
}

// epochLatencies gives, per acknowledged write, the time from its
// acknowledgement to the publication of the first plan covering it.
func epochLatencies(writes []writeRec, epochs []epochRec) []float64 {
	var out []float64
	for _, w := range writes {
		if !w.ok {
			continue
		}
		for _, e := range epochs {
			if e.gen >= w.gen {
				out = append(out, max(0, ms(e.at.Sub(w.ack))))
				break
			}
		}
	}
	return out
}
