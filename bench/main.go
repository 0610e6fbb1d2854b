// Command bench is the repository's benchmark: five named workloads on
// the live runtime, eight end-to-end metrics with the bound each may
// worsen by, and per-layer metrics taken from outside the runtime. See
// README.md for what each workload and metric is for.
//
//	bash bench/run.sh --workload call-sim --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh                      # every workload, then the traced pass
//	bash bench/run.sh -out a.json ; bash bench/run.sh -out b.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// pinnedProcs is the GOMAXPROCS every run uses: the sandbox has two
// cores, and before Go 1.25 the runtime ignores a container's quota.
const pinnedProcs = 2

// tracedSeconds is the length of a workload's traced round when every
// workload is run in one invocation.
const tracedSeconds = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// doc is the file -out writes and -compare reads.
type doc struct {
	Go         string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Rounds     int      `json:"rounds"`
	Reports    []report `json:"reports"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload alone and end with the result line (default: all, then the traced pass)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 12, "measured seconds per workload, split over the rounds (BENCHMARK.json asks for 18)")
	rounds := fs.Int("rounds", 3, "rounds per workload, each on a fresh Env")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	out := fs.String("out", "", "also write the reports to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || *rounds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	runtime.GOMAXPROCS(pinnedProcs)
	d := doc{Go: runtime.Version(), GOMAXPROCS: pinnedProcs, Seed: *seed, Seconds: *seconds, Rounds: *rounds}
	fmt.Fprintf(stdout, "bench: %s GOMAXPROCS=%d (of %d CPUs) seed=%d seconds=%d rounds=%d\n",
		d.Go, pinnedProcs, runtime.NumCPU(), *seed, *seconds, *rounds)

	r := runner{seed: *seed, stdout: stdout, stderr: stderr}
	measure := time.Duration(*seconds) * time.Second
	var err error
	switch {
	case *name == "":
		d.Reports, err = r.all(measure/time.Duration(*rounds), *rounds)
	case findWorkload(*name) == nil:
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	case *trace == 0:
		var rep report
		rep, err = r.endToEnd(findWorkload(*name), measure/time.Duration(*rounds), *rounds)
		d.Reports = []report{rep}
	default:
		var rep report
		// Two rounds and the ladder: a third each keeps a traced run as
		// long as an untraced one.
		rep, err = r.perLayer(findWorkload(*name), measure/3)
		d.Reports = []report{rep}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := writeDoc(*out, d); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *name == "" {
		for _, rep := range d.Reports {
			if rep.Failed > 0 {
				return 1
			}
		}
		return 0
	}
	return printResult(stdout, stderr, d.Reports[0], *trace == 1)
}

func writeDoc(path string, d doc) error {
	buf, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// printResult prints the contract's result line: every end-to-end metric
// of an untraced run, every per-layer metric of a traced one.
func printResult(stdout, stderr io.Writer, rep report, traced bool) int {
	defs, vals := endToEnd, rep.EndToEnd
	if traced {
		defs, vals = perLayer, rep.PerLayer
	}
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]resultValue)}
	for _, d := range defs {
		s, ok := vals[d.name]
		if !ok {
			fmt.Fprintf(stderr, "bench: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = resultValue{Value: s.Value, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runner runs rounds and prints as it goes.
type runner struct {
	seed   int64
	stdout io.Writer
	stderr io.Writer
}

// round runs one guarded round. The watchdog turns a hang into a
// non-zero exit that names the workload, never a stuck process.
func (r *runner) round(w *workload, measure time.Duration, tr *tracer, label string) (roundResult, error) {
	budget := measure + collectDeadlineBeats*w.bed.ttb + 15*time.Second
	guard := time.AfterFunc(min(3*budget, 170*time.Second), func() {
		fmt.Fprintf(r.stderr, "bench: workload %s hung (%s, no end after 3x its %v budget): every outstanding operation failed\n", w.name, label, budget)
		os.Exit(3)
	})
	defer guard.Stop()
	res, err := runRound(w, r.seed, measure, tr)
	if err != nil {
		return res, fmt.Errorf("%s %s: %w", w.name, label, err)
	}
	fmt.Fprintf(r.stdout, "%-13s %-8s calib %6.1f ns  setup %.3f s  %8.0f op/s  %d ops, %d failed  collected %d in %.2f s drain\n",
		w.name, label, res.calibNs, res.setupS, float64(res.ops)/res.measuredS, res.ops, res.failed, res.gc.collected, res.drainS)
	for _, e := range res.errs {
		fmt.Fprintf(r.stdout, "%-13s %-8s FAILED: %s\n", w.name, label, e)
	}
	return res, nil
}

func (r *runner) endToEnd(w *workload, measure time.Duration, rounds int) (report, error) {
	var rr []roundResult
	for i := 0; i < rounds; i++ {
		res, err := r.round(w, measure, nil, fmt.Sprintf("round %d", i+1))
		if err != nil {
			return report{}, err
		}
		rr = append(rr, res)
	}
	rep := endToEndReport(w, rr)
	fmt.Fprintf(r.stdout, "%s: %d attempted, %d failed\n", w.name, rep.Attempted, rep.Failed)
	rep.print(r.stdout, endToEnd, rep.EndToEnd)
	return rep, nil
}

// perLayer runs an untraced round, the layer ladder and a traced round of
// the same length.
func (r *runner) perLayer(w *workload, measure time.Duration) (report, error) {
	plain, err := r.round(w, measure, nil, "plain")
	if err != nil {
		return report{}, err
	}
	ladder, err := runLadder(r.seed)
	if err != nil {
		return report{}, err
	}
	rep, err := r.traced(w, plain, measure, ladder)
	rep.count([]roundResult{plain})
	return rep, err
}

// traced runs one traced round and assembles the per-layer report from
// it, an untraced round of the same workload and the ladder.
func (r *runner) traced(w *workload, plain roundResult, measure time.Duration, ladder map[string]float64) (report, error) {
	tr := newTracer(measure)
	traced, err := r.round(w, measure, tr, "traced")
	if err != nil {
		return report{}, err
	}
	path, err := tr.writeSpans(w.name, 50_000)
	if err != nil {
		return report{}, err
	}
	rep := perLayerReport(w, plain, traced, tr, ladder)
	fmt.Fprintf(r.stdout, "%s per layer (spans in %s, %d beyond the span table):\n", w.name, path, tr.skipped.Load())
	rep.print(r.stdout, perLayer, rep.PerLayer)
	return rep, nil
}

// all runs every workload round-robin, so that the host's drift falls on
// all of them alike, then the ladder and one traced round per workload.
func (r *runner) all(measure time.Duration, rounds int) ([]report, error) {
	rr := make([][]roundResult, len(workloads))
	for i := 0; i < rounds; i++ {
		for wi, w := range workloads {
			res, err := r.round(w, measure, nil, fmt.Sprintf("round %d", i+1))
			if err != nil {
				return nil, err
			}
			rr[wi] = append(rr[wi], res)
		}
	}
	ladder, err := runLadder(r.seed)
	if err != nil {
		return nil, err
	}
	var reports []report
	for wi, w := range workloads {
		rep := endToEndReport(w, rr[wi])
		fmt.Fprintf(r.stdout, "%s: %d attempted, %d failed\n", w.name, rep.Attempted, rep.Failed)
		rep.print(r.stdout, endToEnd, rep.EndToEnd)
		layers, err := r.traced(w, rr[wi][rounds-1], tracedSeconds*time.Second, ladder)
		if err != nil {
			return nil, err
		}
		rep.PerLayer = layers.PerLayer
		for k, v := range layers.Samples {
			rep.Samples[k] = v
		}
		rep.Rounds += layers.Rounds
		rep.Attempted += layers.Attempted
		rep.Failed += layers.Failed
		rep.Errors = append(rep.Errors, layers.Errors...)
		reports = append(reports, rep)
	}
	return reports, nil
}
