package nas

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/active"
	"repro/internal/wire"
)

// Kernel names the NAS kernel to run.
type Kernel string

// The kernels the paper benchmarks (§5.2).
const (
	// KernelCG is the conjugate-gradient eigenvalue approximation
	// (heavily communicating).
	KernelCG Kernel = "cg"
	// KernelEP is the embarrassingly parallel Gaussian-deviate kernel
	// (lightly communicating).
	KernelEP Kernel = "ep"
	// KernelFT is the 3-D FFT PDE solver (all-exchange per iteration).
	KernelFT Kernel = "ft"
)

// CGParams sizes the CG kernel: a banded symmetric positive definite
// matrix of order N with off-diagonals at ±1 and ±Stride, Inner CG
// iterations per outer power iteration.
type CGParams struct {
	N      int
	Stride int
	Inner  int
	Outer  int
	Shift  float64
}

// EPParams sizes the EP kernel: 2^LogPairs Gaussian pairs.
type EPParams struct {
	LogPairs uint
}

// FTParams sizes the FT kernel: an NX×NY×NZ grid evolved Iters times
// (dimensions must be powers of two).
type FTParams struct {
	NX, NY, NZ int
	Iters      int
}

const evolveAlpha = 1e-6 // the NAS FT diffusion constant

// errBadArgs reports malformed kernel arguments.
var errBadArgs = errors.New("nas: malformed kernel arguments")

// worker is the compute behavior shared by all kernels. It keeps its
// matrix rows as plain local data (passive objects with no remote
// references) and its peer references in the activity state, giving the
// complete reference graph the paper attributes to the NAS barriers.
type worker struct {
	rank, np int
	cg       CGParams
	// rows of the banded matrix (built lazily at init when CG is active).
	diag  []float64
	rowLo int
	rowHi int
	hasCG bool
}

var _ active.Behavior = (*worker)(nil)

// rowRange splits n rows evenly among np workers.
func rowRange(n, np, rank int) (int, int) {
	base, rem := n/np, n%np
	lo := rank*base + min(rank, rem)
	hi := lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Serve implements active.Behavior.
func (w *worker) Serve(ctx *active.Context, method string, args wire.Value) (wire.Value, error) {
	switch method {
	case "init":
		return w.init(ctx, args)
	case "matvec":
		return w.matvec(args)
	case "ep":
		return w.ep(args)
	case "fftxy":
		return w.fftxy(args)
	case "fftz":
		return w.fftz(args)
	case "stop":
		ctx.TerminateSelf()
		return wire.Null(), nil
	default:
		return wire.Null(), fmt.Errorf("nas: worker has no method %q", method)
	}
}

func (w *worker) init(ctx *active.Context, args wire.Value) (wire.Value, error) {
	w.rank = int(args.Get("rank").AsInt())
	w.np = int(args.Get("np").AsInt())
	// Storing the full peer list (all workers + coordinator) creates the
	// complete reference graph of §5.2.
	ctx.Store("peers", args.Get("peers"))
	if cgv := args.Get("cg"); !cgv.IsNull() {
		w.cg = CGParams{
			N:      int(cgv.Get("n").AsInt()),
			Stride: int(cgv.Get("stride").AsInt()),
		}
		w.rowLo, w.rowHi = rowRange(w.cg.N, w.np, w.rank)
		w.diag = make([]float64, w.rowHi-w.rowLo)
		for i := range w.diag {
			row := w.rowLo + i
			w.diag[i] = 1 + float64(countOffdiags(row, w.cg.N, w.cg.Stride))*2
		}
		w.hasCG = true
	}
	return wire.Int(int64(w.rank)), nil
}

// countOffdiags counts the -1 entries of a row (neighbours at ±1, ±stride
// inside the matrix).
func countOffdiags(row, n, stride int) int {
	c := 0
	for _, j := range []int{row - 1, row + 1, row - stride, row + stride} {
		if j >= 0 && j < n && j != row {
			c++
		}
	}
	return c
}

// matvec computes this worker's rows of A·p for the full vector p.
func (w *worker) matvec(args wire.Value) (wire.Value, error) {
	if !w.hasCG {
		return wire.Null(), fmt.Errorf("%w: matvec before CG init", errBadArgs)
	}
	p := args.Get("p").AsFloats()
	if len(p) != w.cg.N {
		return wire.Null(), fmt.Errorf("%w: p has %d entries, want %d", errBadArgs, len(p), w.cg.N)
	}
	seg := make([]float64, w.rowHi-w.rowLo)
	for i := range seg {
		row := w.rowLo + i
		v := w.diag[i] * p[row]
		for _, j := range []int{row - 1, row + 1, row - w.cg.Stride, row + w.cg.Stride} {
			if j >= 0 && j < w.cg.N && j != row {
				v -= p[j]
			}
		}
		seg[i] = v
	}
	return wire.Dict(map[string]wire.Value{
		"lo":  wire.Int(int64(w.rowLo)),
		"seg": wire.Floats(seg),
	}), nil
}

// ep draws the worker's block of the global NAS random sequence and
// produces Gaussian deviates by the Marsaglia polar method, exactly as NAS
// EP does.
func (w *worker) ep(args wire.Value) (wire.Value, error) {
	lo := uint64(args.Get("lo").AsInt())
	hi := uint64(args.Get("hi").AsInt())
	rng := NewLCG(DefaultSeed)
	rng.Skip(2 * lo) // each pair consumes two randoms
	var sx, sy float64
	counts := make([]float64, 10)
	var accepted int64
	for k := lo; k < hi; k++ {
		x := 2*rng.Next() - 1
		y := 2*rng.Next() - 1
		t := x*x + y*y
		if t > 1 || t == 0 {
			continue
		}
		fac := math.Sqrt(-2 * math.Log(t) / t)
		gx, gy := x*fac, y*fac
		accepted++
		sx += gx
		sy += gy
		l := int(math.Max(math.Abs(gx), math.Abs(gy)))
		if l < len(counts) {
			counts[l]++
		}
	}
	return wire.Dict(map[string]wire.Value{
		"sx":       wire.Float(sx),
		"sy":       wire.Float(sy),
		"counts":   wire.Floats(counts),
		"accepted": wire.Int(accepted),
	}), nil
}

// fftxy 2-D-transforms each z-plane of the shipped slab.
func (w *worker) fftxy(args wire.Value) (wire.Value, error) {
	data := floatsToComplex(args.Get("data").AsFloats())
	nx := int(args.Get("nx").AsInt())
	ny := int(args.Get("ny").AsInt())
	dir := int(args.Get("dir").AsInt())
	if nx == 0 || ny == 0 || len(data)%(nx*ny) != 0 {
		return wire.Null(), fmt.Errorf("%w: fftxy geometry", errBadArgs)
	}
	fftPlanesXY(data, nx, ny, dir)
	return wire.Dict(map[string]wire.Value{"data": wire.Floats(complexToFloats(data))}), nil
}

// fftz 1-D-transforms each contiguous z-pencil of the shipped block.
func (w *worker) fftz(args wire.Value) (wire.Value, error) {
	data := floatsToComplex(args.Get("data").AsFloats())
	nz := int(args.Get("nz").AsInt())
	dir := int(args.Get("dir").AsInt())
	if nz == 0 || len(data)%nz != 0 {
		return wire.Null(), fmt.Errorf("%w: fftz geometry", errBadArgs)
	}
	fftPencilsZ(data, nz, dir)
	return wire.Dict(map[string]wire.Value{"data": wire.Floats(complexToFloats(data))}), nil
}

// coordinator drives a kernel over the worker pool: it owns the numeric
// outer loops and farms the heavy inner operations out, waiting on futures
// (wait-by-necessity keeps it busy for the DGC throughout the run, §4.1).
type coordinator struct {
	kernel Kernel
	np     int
	cg     CGParams
	ep     EPParams
	ft     FTParams
	// waitBudget bounds each future wait, in wall time.
	waitBudget time.Duration
}

var _ active.Behavior = (*coordinator)(nil)

// Serve implements active.Behavior.
func (c *coordinator) Serve(ctx *active.Context, method string, args wire.Value) (wire.Value, error) {
	switch method {
	case "init":
		return c.init(ctx, args)
	case "run":
		switch c.kernel {
		case KernelCG:
			return c.runCG(ctx)
		case KernelEP:
			return c.runEP(ctx)
		case KernelFT:
			return c.runFT(ctx)
		default:
			return wire.Null(), fmt.Errorf("nas: unknown kernel %q", c.kernel)
		}
	case "shutdown":
		return c.shutdown(ctx)
	default:
		return wire.Null(), fmt.Errorf("nas: coordinator has no method %q", method)
	}
}

// init distributes the peer list: each worker learns every other worker
// and the coordinator (the paper's complete reference graph), and builds
// its local matrix block.
func (c *coordinator) init(ctx *active.Context, args wire.Value) (wire.Value, error) {
	workers := args.Get("workers")
	ctx.Store("workers", workers)
	peers := make([]wire.Value, 0, workers.Len()+1)
	for i := 0; i < workers.Len(); i++ {
		peers = append(peers, workers.At(i))
	}
	peers = append(peers, ctx.Self())
	var cgv wire.Value
	if c.kernel == KernelCG {
		cgv = wire.Dict(map[string]wire.Value{
			"n":      wire.Int(int64(c.cg.N)),
			"stride": wire.Int(int64(c.cg.Stride)),
		})
	} else {
		cgv = wire.Null()
	}
	futs := make([]*active.Future, workers.Len())
	for i := 0; i < workers.Len(); i++ {
		initArgs := wire.Dict(map[string]wire.Value{
			"rank":  wire.Int(int64(i)),
			"np":    wire.Int(int64(c.np)),
			"peers": wire.List(peers...),
			"cg":    cgv,
		})
		fut, err := ctx.Call(workers.At(i), "init", initArgs)
		if err != nil {
			return wire.Null(), err
		}
		futs[i] = fut
	}
	for _, fut := range futs {
		if _, err := fut.Wait(c.waitBudget); err != nil {
			return wire.Null(), err
		}
	}
	return wire.Int(int64(workers.Len())), nil
}

func (c *coordinator) shutdown(ctx *active.Context) (wire.Value, error) {
	workers := ctx.Load("workers")
	for i := 0; i < workers.Len(); i++ {
		if err := ctx.Send(workers.At(i), "stop", wire.Null()); err != nil {
			return wire.Null(), err
		}
	}
	ctx.TerminateSelf()
	return wire.Null(), nil
}

// fanOut calls method on every worker with per-worker args and returns the
// responses in rank order.
func (c *coordinator) fanOut(ctx *active.Context, method string, argsFor func(rank int) wire.Value) ([]wire.Value, error) {
	workers := ctx.Load("workers")
	n := workers.Len()
	if n == 0 {
		return nil, errors.New("nas: coordinator has no workers (init not run?)")
	}
	futs := make([]*active.Future, n)
	for i := 0; i < n; i++ {
		fut, err := ctx.Call(workers.At(i), method, argsFor(i))
		if err != nil {
			return nil, err
		}
		futs[i] = fut
	}
	out := make([]wire.Value, n)
	for i, fut := range futs {
		v, err := fut.Wait(c.waitBudget)
		if err != nil {
			return nil, fmt.Errorf("nas: %s on worker %d: %w", method, i, err)
		}
		out[i] = v
	}
	return out, nil
}

// --- CG -------------------------------------------------------------------

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// distMatvec computes A·p with one matvec round over the workers.
func (c *coordinator) distMatvec(ctx *active.Context, p []float64) ([]float64, error) {
	arg := wire.Dict(map[string]wire.Value{"p": wire.Floats(p)})
	resps, err := c.fanOut(ctx, "matvec", func(int) wire.Value { return arg })
	if err != nil {
		return nil, err
	}
	q := make([]float64, c.cg.N)
	for _, r := range resps {
		lo := int(r.Get("lo").AsInt())
		seg := r.Get("seg").AsFloats()
		copy(q[lo:lo+len(seg)], seg)
	}
	return q, nil
}

// runCG is the NAS CG driver: Outer power iterations, each solving
// A·z = x with Inner unpreconditioned CG steps, and estimating
// ζ = Shift + 1/(x·z).
func (c *coordinator) runCG(ctx *active.Context) (wire.Value, error) {
	n := c.cg.N
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	var zeta, rnorm float64
	for outer := 0; outer < c.cg.Outer; outer++ {
		z := make([]float64, n)
		r := make([]float64, n)
		copy(r, x)
		p := make([]float64, n)
		copy(p, x)
		rho := dot(r, r)
		for inner := 0; inner < c.cg.Inner; inner++ {
			q, err := c.distMatvec(ctx, p)
			if err != nil {
				return wire.Null(), err
			}
			alpha := rho / dot(p, q)
			for i := range z {
				z[i] += alpha * p[i]
				r[i] -= alpha * q[i]
			}
			rho2 := dot(r, r)
			beta := rho2 / rho
			rho = rho2
			for i := range p {
				p[i] = r[i] + beta*p[i]
			}
		}
		// Explicit residual ‖x − A·z‖ (the NAS verification quantity).
		az, err := c.distMatvec(ctx, z)
		if err != nil {
			return wire.Null(), err
		}
		var rr float64
		for i := range az {
			d := x[i] - az[i]
			rr += d * d
		}
		rnorm = math.Sqrt(rr)
		zeta = c.cg.Shift + 1/dot(x, z)
		norm := math.Sqrt(dot(z, z))
		for i := range x {
			x[i] = z[i] / norm
		}
	}
	return wire.Dict(map[string]wire.Value{
		"value": wire.Float(zeta),
		"rnorm": wire.Float(rnorm),
	}), nil
}

// --- EP -------------------------------------------------------------------

func (c *coordinator) runEP(ctx *active.Context) (wire.Value, error) {
	pairs := uint64(1) << c.ep.LogPairs
	resps, err := c.fanOut(ctx, "ep", func(rank int) wire.Value {
		lo := pairs * uint64(rank) / uint64(c.np)
		hi := pairs * uint64(rank+1) / uint64(c.np)
		return wire.Dict(map[string]wire.Value{
			"lo": wire.Int(int64(lo)),
			"hi": wire.Int(int64(hi)),
		})
	})
	if err != nil {
		return wire.Null(), err
	}
	var sx, sy float64
	var accepted int64
	counts := make([]float64, 10)
	for _, r := range resps {
		sx += r.Get("sx").AsFloat()
		sy += r.Get("sy").AsFloat()
		accepted += r.Get("accepted").AsInt()
		for i, v := range r.Get("counts").AsFloats() {
			counts[i] += v
		}
	}
	return wire.Dict(map[string]wire.Value{
		"value":    wire.Float(sx + sy),
		"sx":       wire.Float(sx),
		"sy":       wire.Float(sy),
		"accepted": wire.Int(accepted),
		"pairs":    wire.Int(int64(pairs)),
		"counts":   wire.Floats(counts),
	}), nil
}

// --- FT -------------------------------------------------------------------

// dist3DFFT runs one distributed 3-D FFT: the xy phase ships z-slabs to
// the workers, the z phase ships z-pencil blocks (the all-exchange
// transpose travels through the coordinator; DESIGN.md §3 notes the
// routing substitution).
func (c *coordinator) dist3DFFT(ctx *active.Context, data []complex128, dir int) ([]complex128, error) {
	nx, ny, nz := c.ft.NX, c.ft.NY, c.ft.NZ
	plane := nx * ny

	// Phase 1: 2-D FFT of each z-plane, z-slabs distributed by rank.
	resps, err := c.fanOut(ctx, "fftxy", func(rank int) wire.Value {
		lo, hi := rowRange(nz, c.np, rank)
		return wire.Dict(map[string]wire.Value{
			"data": wire.Floats(complexToFloats(data[lo*plane : hi*plane])),
			"nx":   wire.Int(int64(nx)),
			"ny":   wire.Int(int64(ny)),
			"dir":  wire.Int(int64(dir)),
		})
	})
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(data))
	for rank, r := range resps {
		lo, _ := rowRange(nz, c.np, rank)
		copy(out[lo*plane:], floatsToComplex(r.Get("data").AsFloats()))
	}

	// Transpose to z-pencils: pencil p = y*nx+x holds out[(z*ny+y)*nx+x].
	pencils := make([]complex128, len(data))
	for z := 0; z < nz; z++ {
		for p := 0; p < plane; p++ {
			pencils[p*nz+z] = out[z*plane+p]
		}
	}

	// Phase 2: 1-D FFT along z, pencil blocks distributed by rank.
	resps, err = c.fanOut(ctx, "fftz", func(rank int) wire.Value {
		lo, hi := rowRange(plane, c.np, rank)
		return wire.Dict(map[string]wire.Value{
			"data": wire.Floats(complexToFloats(pencils[lo*nz : hi*nz])),
			"nz":   wire.Int(int64(nz)),
			"dir":  wire.Int(int64(dir)),
		})
	})
	if err != nil {
		return nil, err
	}
	for rank, r := range resps {
		lo, _ := rowRange(plane, c.np, rank)
		copy(pencils[lo*nz:], floatsToComplex(r.Get("data").AsFloats()))
	}

	// Transpose back to plane-major order.
	for z := 0; z < nz; z++ {
		for p := 0; p < plane; p++ {
			out[z*plane+p] = pencils[p*nz+z]
		}
	}
	return out, nil
}

// runFT is the NAS FT driver: FFT the initial state once, then per
// iteration evolve the spectrum and inverse-FFT it, checksumming 1 024
// points.
func (c *coordinator) runFT(ctx *active.Context) (wire.Value, error) {
	nx, ny, nz := c.ft.NX, c.ft.NY, c.ft.NZ
	total := nx * ny * nz
	rng := NewLCG(DefaultSeed)
	initial := make([]complex128, total)
	for i := range initial {
		re := rng.Next()
		im := rng.Next()
		initial[i] = complex(re, im)
	}
	spectrum, err := c.dist3DFFT(ctx, initial, +1)
	if err != nil {
		return wire.Null(), err
	}
	var chk complex128
	for t := 1; t <= c.ft.Iters; t++ {
		evolved := make([]complex128, total)
		for z := 0; z < nz; z++ {
			kz := wavenumber(z, nz)
			for y := 0; y < ny; y++ {
				ky := wavenumber(y, ny)
				for x := 0; x < nx; x++ {
					kx := wavenumber(x, nx)
					k2 := float64(kx*kx + ky*ky + kz*kz)
					f := math.Exp(-4 * math.Pi * math.Pi * evolveAlpha * float64(t) * k2)
					idx := (z*ny+y)*nx + x
					evolved[idx] = spectrum[idx] * complex(f, 0)
				}
			}
		}
		grid, err := c.dist3DFFT(ctx, evolved, -1)
		if err != nil {
			return wire.Null(), err
		}
		chk = checksum(grid, nx, ny, nz)
	}
	return wire.Dict(map[string]wire.Value{
		"value": wire.Float(real(chk)),
		"im":    wire.Float(imag(chk)),
	}), nil
}

// wavenumber maps a grid index to its signed frequency.
func wavenumber(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}

// checksum samples 1 024 deterministic grid points, NAS-style.
func checksum(grid []complex128, nx, ny, nz int) complex128 {
	var s complex128
	for j := 1; j <= 1024; j++ {
		x := j % nx
		y := (3 * j) % ny
		z := (5 * j) % nz
		s += grid[(z*ny+y)*nx+x]
	}
	return s / complex(float64(nx*ny*nz), 0)
}
