package main

import (
	"encoding/json"
	"math/rand"
	"strconv"

	"binpart/internal/bench"
	"binpart/internal/fpga"
	"binpart/internal/progen"
)

// Every input the benchmark hands the program is generated here from the
// workload seed; nothing else varies between two runs with one seed.

// t2Clocks are the CPU clocks of the paper's T2 table, at which the
// suite-cold workload prices every analysis.
var t2Clocks = []float64{40, 200, 400}

// progenShape is one generator configuration the draws cycle through.
type progenShape struct {
	name string
	cfg  progen.Config
}

// progenConfigs is suite-cold's draw of program shapes: block length,
// switches and loop shape are what recovery and simulation cost depend
// on.
var progenConfigs = []progenShape{
	{"default", progen.DefaultConfig()},
	{"switch", progen.SwitchConfig()},
	{"straightline", progen.StraightlineConfig()},
	{"branchy", progen.BranchyConfig()},
}

// uploadConfigs are the shapes of serve-mixed's uploads: the default
// config only. The switch, branchy and straightline shapes have long
// analysis tails (up to 10-30ms a program); with them in, serve-mixed's
// p99 would measure which of those programs a seed drew, where the
// workload is about cache inserts and the slots they hold. suite-cold
// measures every shape.
var uploadConfigs = []progenShape{
	{"default", progen.DefaultConfig()},
}

// job is one binary of the suite-cold workload: a MicroC source and the
// optimization level it is compiled at.
type job struct {
	Name   string // suite benchmark name, or progen-<config>-<seed>
	Source string
	Opt    int
	Progen bool
}

// progenJob draws one generated program: its shape cycles through
// shapes with i, its seed and opt level come from r.
func progenJob(r *rand.Rand, i int, shapes []progenShape) job {
	pc := shapes[i%len(shapes)]
	seed := r.Int63()
	opt := r.Intn(4)
	p := progen.Generate(seed, pc.cfg)
	return job{Name: "progen-" + pc.name + "-" + strconv.FormatInt(seed, 10), Source: p.Source, Opt: opt, Progen: true}
}

// suiteColdJobs is one pass of the suite-cold workload: the 20 suite
// kernels at -O0..-O3, then nProgen generated programs drawn from seed.
func suiteColdJobs(seed int64, nProgen int) []job {
	var jobs []job
	for _, b := range bench.All() {
		for opt := 0; opt <= 3; opt++ {
			jobs = append(jobs, job{Name: b.Name, Source: b.Source, Opt: opt})
		}
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < nProgen; i++ {
		jobs = append(jobs, progenJob(r, i, progenConfigs))
	}
	return jobs
}

// apiRequest mirrors the JSON body bpartd's /v1/partition and /v1/sweep
// accept (only the fields the benchmark sends).
type apiRequest struct {
	Bench           string    `json:"bench,omitempty"`
	Opt             int       `json:"opt,omitempty"`
	SBF             []byte    `json:"sbf,omitempty"`
	MHz             float64   `json:"mhz,omitempty"`
	Device          string    `json:"device,omitempty"`
	Alg             string    `json:"alg,omitempty"`
	AreaBudgetGates int       `json:"area_budget_gates,omitempty"`
	Sweep           string    `json:"sweep,omitempty"`
	Clocks          []float64 `json:"clocks,omitempty"`
}

var (
	reqClocks  = []float64{40, 100, 200, 400}
	reqAlgs    = []string{"90-10", "greedy", "gclp"}
	reqBudgets = []int{0, 10000, 25000, 50000, 100000}
	// sweepClocks is the clock list the clocks-mode sweeps send.
	sweepClocks = []float64{40, 100, 200, 300, 400}
)

// warmRequest draws one /v1/partition request over (bench, opt, mhz,
// device, alg, area budget), naming a suite binary the daemon has
// analyzed during set-up.
func warmRequest(r *rand.Rand) apiRequest {
	suite := bench.All()
	return apiRequest{
		Bench:           suite[r.Intn(len(suite))].Name,
		Opt:             r.Intn(4),
		MHz:             reqClocks[r.Intn(len(reqClocks))],
		Device:          fpga.Catalog[r.Intn(len(fpga.Catalog))].Name,
		Alg:             reqAlgs[r.Intn(len(reqAlgs))],
		AreaBudgetGates: reqBudgets[r.Intn(len(reqBudgets))],
	}
}

// warmRequests is the serve-warm request sequence; the closed loop
// cycles through it.
func warmRequests(seed int64, n int) []apiRequest {
	r := rand.New(rand.NewSource(seed))
	out := make([]apiRequest, n)
	for i := range out {
		out[i] = warmRequest(r)
	}
	return out
}

// Kinds of serve-mixed operations.
const (
	opPartition = iota
	opSweep
	opUpload
)

// mixedOp is one scheduled serve-mixed request. Upload requests carry
// the index of their fresh program in the upload list; their SBF image
// is filled in once the program is compiled.
type mixedOp struct {
	Kind   int
	Req    apiRequest
	Upload int // index into the upload programs, for opUpload
}

// mixedSchedule draws n serve-mixed operations: about 80% warm
// partitions, 10% sweeps (devices or clocks) and 10% uploads of fresh
// generated programs, each sent once. It returns the schedule and the
// upload programs in the order they are sent.
func mixedSchedule(seed int64, n int) ([]mixedOp, []job) {
	r := rand.New(rand.NewSource(seed))
	ops := make([]mixedOp, n)
	var uploads []job
	for i := range ops {
		switch k := r.Intn(10); {
		case k < 8:
			ops[i] = mixedOp{Kind: opPartition, Req: warmRequest(r)}
		case k == 8:
			req := warmRequest(r)
			req.AreaBudgetGates = 0
			if r.Intn(2) == 0 {
				req.Sweep = "devices"
			} else {
				req.Sweep, req.Clocks = "clocks", sweepClocks
			}
			ops[i] = mixedOp{Kind: opSweep, Req: req}
		default:
			req := warmRequest(r)
			req.Bench, req.Opt = "", 0
			ops[i] = mixedOp{Kind: opUpload, Req: req, Upload: len(uploads)}
			uploads = append(uploads, progenJob(r, len(uploads), uploadConfigs))
		}
	}
	return ops, uploads
}

// marshalBody encodes a request body; the benchmark's own types always
// encode.
func marshalBody(req apiRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}
