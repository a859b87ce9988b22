package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"offloadnn/internal/cluster"
	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/exec"
	"offloadnn/internal/radio"
	"offloadnn/internal/serve"
)

// stack is one workload's serving stack, built in this process through
// the public constructors and served on loopback listeners.
type stack struct {
	url     string // where offloads are sent
	targets []target
	oracle  *oracle
	// pathKey maps a task and the path its 200 names to an oracle key.
	pathKey  func(task, path string) string
	backends []exec.Backend
	// writes is where registry writes go, gen reads the written
	// registry's generation and epoch reads the latest published plan.
	writes string
	gen    func() uint64
	epoch  func() (epochRec, bool)
	// servers are the serving daemons whose epochs the traced run reads.
	servers []*serve.Server
	// forward is the path the traced run times ForwardBatch on.
	forward forwardPath
	closers []func()
}

// epochRec is one published plan as the benchmark observes it.
type epochRec struct {
	n, gen uint64
	at     time.Time
	solve  time.Duration
	node   string
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// listen serves h on a fresh loopback port.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	s.closers = append(s.closers, func() {
		hs.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

func serverEpoch(srv *serve.Server, node string) func() (epochRec, bool) {
	return func() (epochRec, bool) {
		ep := srv.Current()
		if ep == nil {
			return epochRec{}, false
		}
		return epochRec{n: ep.N, gen: ep.Generation, at: ep.PublishedAt, solve: ep.SolveLatency, node: node}, true
	}
}

// smallModel is the scaled template of the shared-small and churn
// workloads (the BenchmarkOffloadServe model).
var smallModel = dnn.ResNetConfig{InChannels: 3, NumClasses: 8, BaseWidth: 8, StageBlocks: [4]int{1, 1, 1, 1}, Seed: 1}

// serveLayers maps a serving daemon's routes to traced layers.
var serveLayers = map[string]string{"/v1/offload": "serve.offload", "/v1/stage": "serve.stage"}

// buildSharedSmall: one node, four tasks whose only path is one shared
// two-block path, so every request funnels into one batch-8 queue.
func buildSharedSmall(frames [][]float64, tr *tracer) (*stack, error) {
	st := &stack{}
	input := [3]int{3, 8, 8}
	be, err := exec.NewReal(exec.RealConfig{Model: smallModel, Input: input, BatchSize: 8})
	if err != nil {
		return nil, err
	}
	be2 := wrapBackend(be, tr, "")
	srv, err := serve.New(serve.Config{
		Res: core.Resources{
			RBs: 50, ComputeSeconds: 2.5, MemoryGB: 8,
			TrainBudgetSeconds: 1000, Capacity: radio.PaperRate(),
		},
		Alpha:   0.5,
		Backend: be2,
	})
	if err != nil {
		be.Close()
		return nil, err
	}
	st.closers = append(st.closers, srv.Close)
	blocks := map[string]core.BlockSpec{
		"base/s1": {ID: "base/s1", ComputeSeconds: 1e-6, MemoryGB: 0.001},
		"base/s2": {ID: "base/s2", ComputeSeconds: 1e-6, MemoryGB: 0.001},
	}
	shared := []string{"base/s1", "base/s2"}
	const bound = 100 * time.Millisecond
	for i := 0; i < 4; i++ {
		task := core.Task{
			ID: fmt.Sprintf("shared-%d", i+1), Priority: 1,
			// A gate far above any offered rate keeps the token bucket
			// out of the measurement.
			Rate: 1e5, MinAccuracy: 0.5, MaxLatency: bound, InputBits: 1, SNRdB: 20,
			Paths: []core.PathSpec{{ID: "shared", DNN: "base", Blocks: shared, Accuracy: 0.9}},
		}
		if err := srv.Register(task, blocks); err != nil {
			st.close()
			return nil, err
		}
		st.targets = append(st.targets, target{id: task.ID, bound: bound})
	}
	if err := srv.ResolveNow(); err != nil {
		st.close()
		return nil, err
	}
	for _, t := range st.targets {
		if srv.Current().AdmittedRate(t.id) < 1e4 {
			st.close()
			return nil, fmt.Errorf("shared-small: task %s admitted at %.0f req/s", t.id, srv.Current().AdmittedRate(t.id))
		}
	}
	st.oracle = newOracle(smallModel, input, frames)
	st.oracle.addPath("shared", shared)
	st.pathKey = func(_, path string) string { return path }
	if err := st.oracle.compute([]string{"shared"}); err != nil {
		st.close()
		return nil, err
	}
	url, err := st.listen(tr.handler("node", serveLayers, srv))
	if err != nil {
		st.close()
		return nil, err
	}
	st.url, st.writes = url, url
	st.backends = []exec.Backend{be}
	st.servers = []*serve.Server{srv}
	st.gen = srv.Registry().Generation
	st.epoch = serverEpoch(srv, "")
	st.forward = forwardPath{model: smallModel, input: input, blocks: shared, batch: 8}
	return st, nil
}

// buildSplitLarge: a coordinator and two 0.7 GB members. The task's only
// path is four 0.3 GB stages, so it runs as a 2-hop pipeline proxied
// through the coordinator, on 3×32×32 frames at batch 1.
func buildSplitLarge(frames [][]float64, tr *tracer) (*stack, error) {
	st := &stack{}
	input := [3]int{3, 32, 32}
	model := dnn.DefaultResNetConfig()
	coord, err := cluster.NewCoordinator(cluster.Config{
		// No member agents run, so no heartbeats arrive: keep the
		// failure detector from declaring the static fleet stale.
		HeartbeatTimeout: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, coord.Close)
	ids := []string{"split/stage1", "split/stage2", "split/stage3", "split/stage4"}
	blocks := make(map[string]core.BlockSpec, len(ids))
	for _, id := range ids {
		blocks[id] = core.BlockSpec{ID: id, ComputeSeconds: 1e-6, MemoryGB: 0.3, TrainSeconds: 1}
	}
	const bound = 500 * time.Millisecond
	task := core.Task{
		ID: "big", Priority: 1, Rate: 1e4, MinAccuracy: 0.9, MaxLatency: bound, InputBits: 1, SNRdB: 20,
		Paths: []core.PathSpec{{ID: "split/full", DNN: "split", Blocks: ids, Accuracy: 0.95}},
	}
	if err := coord.Registry().Register(task, blocks); err != nil {
		st.close()
		return nil, err
	}
	front, err := st.listen(tr.handler("coordinator", map[string]string{"/v1/offload": "cluster.proxy"}, coord))
	if err != nil {
		st.close()
		return nil, err
	}
	res := core.Resources{RBs: 50, ComputeSeconds: 2.5, MemoryGB: 0.7, TrainBudgetSeconds: 1000, Capacity: radio.PaperRate()}
	for _, node := range []string{"a", "b"} {
		be, err := exec.NewReal(exec.RealConfig{Model: model, Input: input, BatchSize: 1})
		if err != nil {
			st.close()
			return nil, err
		}
		srv, err := serve.New(serve.Config{Res: res, Alpha: 0.5, Node: node, Backend: wrapBackend(be, tr, node)})
		if err != nil {
			be.Close()
			st.close()
			return nil, err
		}
		st.closers = append(st.closers, srv.Close)
		addr, err := st.listen(tr.handler(node, serveLayers, cluster.MemberHandler(srv)))
		if err != nil {
			st.close()
			return nil, err
		}
		reg, _ := json.Marshal(cluster.RegisterRequest{
			Node: node, Addr: addr, Res: cluster.ToWireResources(res), BandwidthMbps: 1000, State: "healthy",
		})
		resp, err := http.Post(front+"/v1/cluster/nodes", "application/json", bytes.NewReader(reg))
		if err != nil {
			st.close()
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			st.close()
			return nil, fmt.Errorf("split-large: member %s join: %s", node, resp.Status)
		}
		st.backends = append(st.backends, be)
		st.servers = append(st.servers, srv)
	}
	if err := coord.PlaceNow(); err != nil {
		st.close()
		return nil, err
	}
	split := map[string][2]int{}
	for _, srv := range st.servers {
		for _, sp := range srv.Segments() {
			if sp.Task == task.ID {
				split[srv.Node()] = [2]int{sp.From, sp.To}
			}
		}
	}
	if len(split) != 2 {
		st.close()
		return nil, fmt.Errorf("split-large: task runs as %d segments, want a 2-hop pipeline", len(split))
	}
	st.oracle = newOracle(model, input, frames)
	st.oracle.addPath("split/full", ids)
	st.pathKey = func(_, path string) string { return path }
	if err := st.oracle.compute([]string{"split/full"}); err != nil {
		st.close()
		return nil, err
	}
	st.url, st.writes = front, front
	st.targets = []target{{id: task.ID, bound: bound}}
	st.gen = coord.Registry().Generation
	st.epoch = coordinatorEpoch(coord)
	st.forward = forwardPath{model: model, input: input, blocks: ids, batch: 1, split: split}
	return st, nil
}

// coordinatorEpoch reads the latest placement from the coordinator's
// /healthz, answered in-process.
func coordinatorEpoch(coord *cluster.Coordinator) func() (epochRec, bool) {
	return func() (epochRec, bool) {
		rec := httptest.NewRecorder()
		now := time.Now()
		coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var h struct {
			Placement struct {
				Seq        uint64  `json:"seq"`
				Generation uint64  `json:"generation"`
				AgeSeconds float64 `json:"age_seconds"`
			} `json:"placement"`
		}
		if json.Unmarshal(rec.Body.Bytes(), &h) != nil || h.Placement.Seq == 0 {
			return epochRec{}, false
		}
		at := now.Add(-time.Duration(h.Placement.AgeSeconds * float64(time.Second)))
		return epochRec{n: h.Placement.Seq, gen: h.Placement.Generation, at: at, node: "coordinator"}, true
	}
}

// churnStable is the number of stable tasks the churn workload serves;
// below serve.DefaultApproxAfter, so the exact incremental tier runs.
const churnStable = 200

// taskSpec is the POST /v1/tasks body of every task the benchmark
// registers over HTTP: the churn workload's tasks and the write probes.
func taskSpec(id string) serve.TaskSpec {
	return serve.TaskSpec{ID: id, Priority: 0.5, Rate: 20, MinAccuracy: 0.9, MaxLatencyMS: 200, InputBits: 1000, SNRdB: 20}
}

// buildChurn: one node with churnStable tasks registered over HTTP. The
// budgets admit every task in full, so the offload stream never meets
// a closed gate while the churn writes re-solve the plan.
func buildChurn(frames [][]float64, tr *tracer) (*stack, error) {
	st := &stack{}
	input := [3]int{3, 8, 8}
	be, err := exec.NewReal(exec.RealConfig{Model: smallModel, Input: input})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Res: core.Resources{
			RBs: 1000, ComputeSeconds: 100, MemoryGB: 1000,
			TrainBudgetSeconds: 1000, Capacity: radio.PaperRate(),
		},
		Alpha:   0.5,
		Backend: wrapBackend(be, tr, ""),
	})
	if err != nil {
		be.Close()
		return nil, err
	}
	st.closers = append(st.closers, srv.Close)
	url, err := st.listen(tr.handler("node", serveLayers, srv))
	if err != nil {
		st.close()
		return nil, err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for i := 0; i < churnStable; i++ {
		spec := taskSpec(fmt.Sprintf("stable-%03d", i))
		if status, err := postTask(client, url, spec); err != nil || status != http.StatusAccepted {
			st.close()
			return nil, fmt.Errorf("churn: register %s: status %d: %v", spec.ID, status, err)
		}
		st.targets = append(st.targets, target{id: spec.ID, bound: 200 * time.Millisecond})
	}
	if err := srv.ResolveNow(); err != nil {
		st.close()
		return nil, err
	}
	ep := srv.Current()
	st.oracle = newOracle(smallModel, input, frames)
	tasks, _, _ := srv.Registry().Snapshot()
	for _, t := range tasks {
		for _, p := range t.Paths {
			st.oracle.addPath(t.ID+"|"+p.ID, p.Blocks)
		}
	}
	var keys []string
	for _, t := range st.targets {
		a, ok := ep.Assignment(t.id)
		if !ok || a.Z < 1 {
			st.close()
			return nil, fmt.Errorf("churn: stable task %s not admitted in full", t.id)
		}
		keys = append(keys, t.id+"|"+a.Path.ID)
	}
	sort.Strings(keys)
	if err := st.oracle.compute(keys); err != nil {
		st.close()
		return nil, err
	}
	st.pathKey = func(task, path string) string { return task + "|" + path }
	st.url, st.writes = url, url
	st.backends = []exec.Backend{be}
	st.servers = []*serve.Server{srv}
	st.gen = srv.Registry().Generation
	st.epoch = serverEpoch(srv, "")
	// Catalog paths run the full four-stage template.
	st.forward = forwardPath{model: smallModel, input: input,
		blocks: []string{"stage1", "stage2", "stage3", "stage4"}, batch: 8}
	return st, nil
}

func postTask(client *http.Client, url string, spec serve.TaskSpec) (int, error) {
	body, _ := json.Marshal(spec)
	resp, err := client.Post(url+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

func deleteTask(client *http.Client, url, id string) (int, error) {
	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/tasks/"+id, nil)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}
