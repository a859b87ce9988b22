package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"offloadnn/internal/dnn"
)

// job is one scheduled offload: when it is due (offset from the phase
// start), which target task it names and which pooled frame it carries.
type job struct {
	due   time.Duration
	task  int
	frame int
}

// poisson draws a seeded open-loop schedule: exponential inter-arrival
// gaps at rate req/s over dur, each arrival naming a uniformly drawn
// task and frame. The same arguments always give the same schedule.
func poisson(seed int64, rate float64, dur time.Duration, tasks, frames int) []job {
	rng := rand.New(rand.NewSource(seed))
	var jobs []job
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return jobs
		}
		jobs = append(jobs, job{due: due, task: rng.Intn(tasks), frame: rng.Intn(frames)})
	}
}

// outcome is what the generator observed for one job. All instants are
// offsets from the phase start; latency runs from the due time, so a
// request that waited for a free connection carries that wait.
type outcome struct {
	due, sent, done time.Duration
	status          int
	transportErr    bool
	// Fields decoded from a 200 answer.
	logits []float64
	path   string
	hops   []dnn.ActivationHop
}

func (o *outcome) latency() time.Duration { return o.done - o.due }
func (o *outcome) lag() time.Duration     { return o.sent - o.due }

// offloadAnswer is the subset of serve.OffloadResponse the generator
// decodes from every 200.
type offloadAnswer struct {
	Logits []float64           `json:"logits"`
	Path   string              `json:"path"`
	Hops   []dnn.ActivationHop `json:"hops"`
}

// target is one task the generator offloads to, with its latency bound
// L_τ: every request carries its remaining budget as deadline_ms.
type target struct {
	id    string
	bound time.Duration
}

// generator is the open-loop load generator. It keeps at most conns
// keep-alive connections; a request that falls due while every
// connection is busy waits client-side, and that wait is part of its
// latency.
type generator struct {
	url     string
	conns   int
	client  *http.Client
	targets []target
	frames  [][]byte // JSON-encoded input arrays, one per pooled frame
	tr      *tracer  // nil when untraced
}

func newGenerator(url string, conns int, targets []target, frames [][]float64, tr *tracer) *generator {
	enc := make([][]byte, len(frames))
	for i, f := range frames {
		enc[i], _ = json.Marshal(f)
	}
	tp := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &generator{
		url:     url,
		conns:   conns,
		client:  &http.Client{Transport: tp, Timeout: 30 * time.Second},
		targets: targets,
		frames:  enc,
		tr:      tr,
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// run plays a schedule and returns one outcome per job, in schedule
// order. Jobs that fall due while every connection is busy queue here,
// client-side, in due order.
func (g *generator) run(jobs []job) []outcome {
	outs := make([]outcome, len(jobs))
	queue := make(chan int, len(jobs))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				g.do(start, jobs[i], &outs[i])
			}
		}()
	}
	for i, j := range jobs {
		if d := time.Until(start.Add(j.due)); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs
}

func (g *generator) do(start time.Time, j job, o *outcome) {
	t := g.targets[j.task]
	o.due = j.due
	o.sent = time.Since(start)
	// The request carries what is left of L_τ, so the server's EDF sees
	// the true deadline. An already-late request still goes out with a
	// token budget: shedding it is the server's verdict to make.
	remaining := float64(t.bound-(o.sent-o.due)) / float64(time.Millisecond)
	remaining = math.Max(remaining, 0.001)
	body := make([]byte, 0, len(g.frames[j.frame])+96)
	body = append(body, `{"task":`...)
	body = strconv.AppendQuote(body, t.id)
	body = append(body, `,"deadline_ms":`...)
	body = strconv.AppendFloat(body, remaining, 'f', 3, 64)
	body = append(body, `,"input":`...)
	body = append(body, g.frames[j.frame]...)
	body = append(body, '}')
	req, err := http.NewRequest(http.MethodPost, g.url+"/v1/offload", bytes.NewReader(body))
	if err != nil {
		o.transportErr = true
		o.done = time.Since(start)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	var root *span
	if g.tr != nil {
		root = g.tr.begin("loadgen", "", 0)
		req.Header.Set(parentHeader, strconv.FormatUint(root.id, 10))
	}
	resp, err := g.client.Do(req)
	if err != nil {
		o.transportErr = true
		o.done = time.Since(start)
		g.tr.end(root, 0)
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Since(start)
	g.tr.end(root, resp.StatusCode)
	o.status = resp.StatusCode
	if err != nil {
		o.transportErr = true
		return
	}
	if o.status == http.StatusOK {
		var a offloadAnswer
		if json.Unmarshal(raw, &a) != nil {
			o.status = -1 // a 200 the generator cannot read counts as failed
			return
		}
		o.logits, o.path, o.hops = a.Logits, a.Path, a.Hops
	}
}

// quantile returns the q-quantile of sorted (nearest rank) and whether
// at least ten samples lie beyond it; a percentile with fewer samples
// past it is a guess, and callers must not report it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-1-i >= 10
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
