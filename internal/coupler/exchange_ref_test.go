package coupler

import (
	"fmt"
	"math"
	"testing"

	"foam/internal/atmos"
	"foam/internal/data"
	"foam/internal/land"
	"foam/internal/ocean"
	"foam/internal/pool"
	"foam/internal/seaice"
	"foam/internal/spectral"
	"foam/internal/sphere"
)

// refExchange is the oracle for Coupler.Exchange: the per-piece exchange as
// it stood before the coupler kernel pass (DESIGN.md §22). It remaps nine
// lowest-level fields onto the whole ocean grid every call to drive the sea
// ice, and every wet piece re-derives the wind, roughness, drag, density,
// saturation humidity and upward longwave from the unsplit formulas below,
// with math.Max where the kernel uses the max builtin.
// It drives its own coupler's land, ice, budget and accumulators.
type refExchange struct {
	cp        *Coupler
	ex        *atmos.SurfaceExchange
	low       [9][]float64 // T, Q, U, V, Ps, Z, SW, LW, Snow on the ocean grid
	iceOut    []*seaice.Output
	iceOutBuf []seaice.Output
	runoffNow []float64
}

func newRefExchange(cp *Coupler) *refExchange {
	n, m := cp.AtmGrid.Size(), cp.OcnGrid.Size()
	r := &refExchange{
		cp: cp, ex: atmos.NewSurfaceExchange(n),
		iceOut: make([]*seaice.Output, m), iceOutBuf: make([]seaice.Output, m),
		runoffNow: make([]float64, n),
	}
	for f := range r.low {
		r.low[f] = make([]float64, m)
	}
	return r
}

// refSatHum is SatHum before the SatVap/SatHumFromVap split.
func refSatHum(T, p float64) float64 {
	es := 610.78 * math.Exp(17.269*(T-273.16)/(T-35.86))
	if es > 0.5*p {
		es = 0.5 * p
	}
	return atmos.EpsWV * es / (p - (1-atmos.EpsWV)*es)
}

// refBulkCoefficients is BulkCoefficients before the neutral/stability
// split.
func refBulkCoefficients(z, z0, ri float64) (cd, ce float64) {
	if z0 <= 0 {
		z0 = 1e-4
	}
	if z < 2*z0 {
		z = 2 * z0
	}
	cn := atmos.VonKarman / math.Log(z/z0)
	cn *= cn
	var f float64
	switch {
	case ri < 0:
		f = math.Sqrt(1 - 16*math.Max(ri, -10))
	case ri < 0.2:
		d := 1 - 5*ri
		f = d * d
	default:
		f = 1e-3
	}
	cd = cn * f
	ce = cd
	return cd, ce
}

// refBulkRichardson is BulkRichardson with math.Max.
func refBulkRichardson(z, tsurf, tair, q, wind float64) float64 {
	thS := tsurf * (1 + 0.61*q)
	thA := (tair + 0.0098*z) * (1 + 0.61*q)
	w2 := math.Max(wind*wind, 1)
	return 9.80616 * z * (thA - thS) / (0.5 * (thA + thS) * w2)
}

// refOceanRoughness is OceanRoughness evaluating its constant every call.
func refOceanRoughness(wind float64) float64 {
	cn := atmos.VonKarman / math.Log(10/1e-4)
	ustar := math.Sqrt(cn*cn) * math.Max(wind, 1)
	return 0.011*ustar*ustar/9.80616 + 1.5e-5
}

func (r *refExchange) exchange(in *atmos.LowestLevel, dt float64) *atmos.SurfaceExchange {
	cp, ex := r.cp, r.ex
	g := cp.AtmGrid
	n := g.Size()
	for c := 0; c < n; c++ {
		ex.TSurf[c], ex.Albedo[c], ex.TauX[c], ex.TauY[c], ex.Sensible[c], ex.Evap[c] = 0, 0, 0, 0, 0, 0
		r.runoffNow[c] = 0
	}
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			c := g.Index(j, i)
			if !cp.Land.IsLand(c) {
				continue
			}
			lo := cp.Land.Step(c, land.Input{
				SWDown: in.SWDown[c], LWDown: in.LWDown[c],
				TAir: in.T[c], QAir: in.Q[c], UAir: in.U[c], VAir: in.V[c],
				Ps: in.Ps[c], ZRef: in.Z[c],
				Rain: in.RainRate[c], Snowfall: in.SnowRate[c],
			}, dt)
			w := cp.landFrac[c]
			ex.TSurf[c] += w * lo.TSurf
			ex.Albedo[c] += w * lo.Albedo
			ex.TauX[c] += w * lo.TauX
			ex.TauY[c] += w * lo.TauY
			ex.Sensible[c] += w * lo.Sensible
			ex.Evap[c] += w * lo.Evap
			r.runoffNow[c] = (lo.Runoff + lo.SnowShed) * w
			area := g.Area(j, i)
			cp.waterBudget.Precip += (in.RainRate[c] + in.SnowRate[c]) * w * area * dt
			cp.waterBudget.Evap += lo.Evap * w * area * dt
			cp.waterBudget.Runoff += r.runoffNow[c] * area * dt
		}
	}
	for c := 0; c < n; c++ {
		cp.accRunoff[c] += r.runoffNow[c]
	}

	for f, field := range [9][]float64{in.T, in.Q, in.U, in.V, in.Ps, in.Z, in.SWDown, in.LWDown, in.SnowRate} {
		cp.Overlap.AtmToOcnInto(r.low[f], field)
	}
	for oc := range r.iceOut {
		r.iceOut[oc] = nil
	}
	for oc := 0; oc < cp.OcnGrid.Size(); oc++ {
		if cp.ocnMask[oc] < 0.5 || !(cp.Ice.Present(oc) || cp.iceForm[oc] > 0) {
			continue
		}
		out := cp.Ice.Step(oc, seaice.Input{
			TAir: r.low[0][oc], QAir: r.low[1][oc], UAir: r.low[2][oc], VAir: r.low[3][oc],
			Ps: r.low[4][oc], ZRef: r.low[5][oc], SWDown: r.low[6][oc], LWDown: r.low[7][oc],
			Snowfall: r.low[8][oc], OceanFreeze: cp.iceForm[oc],
		}, dt)
		out.MeltWater += cp.Ice.BasalMelt(oc, cp.sstC[oc], dt)
		r.iceOutBuf[oc] = out
		r.iceOut[oc] = &r.iceOutBuf[oc]
	}

	for pi := range cp.Overlap.Cells {
		piece := &cp.Overlap.Cells[pi]
		pf := r.pieceFlux(piece, in)
		cp.accumulatePiece(piece, &pf, ex)
	}
	cp.accSteps++
	for c := 0; c < n; c++ {
		if ex.TSurf[c] <= 0 {
			ex.TSurf[c] = 273
			ex.Albedo[c] = 0.3
		}
	}
	return ex
}

func (r *refExchange) pieceFlux(piece *OverlapCell, in *atmos.LowestLevel) pieceFlux {
	cp := r.cp
	oc := piece.Ocn
	if oc < 0 || cp.ocnMask[oc] < 0.5 {
		return pieceFlux{}
	}
	a := piece.Atm
	if cp.wetAtmArea[a] <= 0 {
		return pieceFlux{}
	}
	wAtm := piece.Area / cp.wetAtmArea[a] * (1 - cp.landFrac[a])
	wOcn := piece.Area / cp.Overlap.OcnArea[oc]
	if io := r.iceOut[oc]; io != nil && cp.Ice.Present(oc) {
		return pieceFlux{
			ok:    true,
			tsurf: wAtm * io.TSurf, albedo: wAtm * io.Albedo,
			taux: wAtm * io.TauXAtm, tauy: wAtm * io.TauYAtm,
			sens: wAtm * io.Sensible, evap: wAtm * io.Evap,
			otx: wOcn * io.TauXOcean, oty: wOcn * io.TauYOcean,
			oheat: wOcn * io.OceanHeat, ofw: wOcn * io.MeltWater,
		}
	}
	sstK := cp.sstC[oc] + 273.15
	wind := math.Hypot(in.U[a], in.V[a])
	z0 := refOceanRoughness(wind)
	ri := refBulkRichardson(in.Z[a], sstK, in.T[a], in.Q[a], wind)
	cd, ce := refBulkCoefficients(in.Z[a], z0, ri)
	rho := in.Ps[a] / (atmos.RDry * in.T[a])
	wEff := math.Max(wind, 1)
	tx := rho * cd * wEff * in.U[a]
	ty := rho * cd * wEff * in.V[a]
	sh := rho * atmos.Cp * ce * wEff * (sstK - in.T[a])
	qs := refSatHum(sstK, in.Ps[a])
	ev := rho * ce * wEff * math.Max(qs-in.Q[a], -in.Q[a])
	lwUp := 0.97 * atmos.StefBo * math.Pow(sstK, 4)
	lat := atmos.LVap * ev
	netHeat := in.SWDown[a]*(1-0.07) + 0.97*in.LWDown[a] - lwUp - sh - lat
	netHeat -= in.SnowRate[a] * atmos.LFus
	return pieceFlux{
		ok:    true,
		tsurf: wAtm * sstK, albedo: wAtm * 0.07,
		taux: wAtm * tx, tauy: wAtm * ty,
		sens: wAtm * sh, evap: wAtm * ev,
		otx: wOcn * clampAbs(tx, MaxStressIntoOcean), oty: wOcn * clampAbs(ty, MaxStressIntoOcean),
		oheat: wOcn * clampAbs(netHeat, MaxHeatIntoOcean),
		ofw:   wOcn * (in.RainRate[a] + in.SnowRate[a] - ev),
	}
}

// twinBoundary hands every atmosphere step's lowest level to the coupler
// under test and to the oracle's coupler, and fails on the first bit of
// difference in the reply, the ocean accumulators, the runoff accumulator
// or the sea-ice state.
type twinBoundary struct {
	t    *testing.T
	cp   *Coupler
	ref  *refExchange
	step int
}

func (b *twinBoundary) Exchange(in *atmos.LowestLevel, dt float64) *atmos.SurfaceExchange {
	got := b.cp.Exchange(in, dt)
	want := b.ref.exchange(in, dt)
	b.step++
	rc := b.ref.cp
	b.same("TSurf", got.TSurf, want.TSurf)
	b.same("Albedo", got.Albedo, want.Albedo)
	b.same("TauX", got.TauX, want.TauX)
	b.same("TauY", got.TauY, want.TauY)
	b.same("Sensible", got.Sensible, want.Sensible)
	b.same("Evap", got.Evap, want.Evap)
	b.same("accTauX", b.cp.accTauX, rc.accTauX)
	b.same("accTauY", b.cp.accTauY, rc.accTauY)
	b.same("accHeat", b.cp.accHeat, rc.accHeat)
	b.same("accFW", b.cp.accFW, rc.accFW)
	b.same("accRunoff", b.cp.accRunoff, rc.accRunoff)
	b.same("Ice.Thick", b.cp.Ice.Thick, rc.Ice.Thick)
	b.same("Ice.TSurf", b.cp.Ice.TSurf, rc.Ice.TSurf)
	if b.cp.accSteps != rc.accSteps || b.cp.waterBudget != rc.waterBudget {
		b.t.Fatalf("step %d: accSteps %d budget %+v, reference %d %+v",
			b.step, b.cp.accSteps, b.cp.waterBudget, rc.accSteps, rc.waterBudget)
	}
	return got
}

func (b *twinBoundary) same(what string, got, want []float64) {
	b.t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			b.t.Fatalf("step %d: %s[%d] = %v, reference %v", b.step, what, i, got[i], want[i])
		}
	}
}

// TestExchangeMatchReference drives the r5 earth (the r5-quick grids and
// cadence) for one simulated day with the coupler under test as the
// atmosphere's boundary and the pre-pass oracle fed the same lowest level,
// serial and with 3 workers. Polar ice is seeded as the core sea-ice pins
// seed it, and a band of freezing flux forms new ice, so the ice-covered
// pieces, basal melt and the ice inputs' piece sums are all compared.
func TestExchangeMatchReference(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := newEarthRung(t, 5)
			cp := NewShared(e.atmGrid, e.ocnGrid, e.oc.Mask(), e.sh)
			rc := NewShared(e.atmGrid, e.ocnGrid, e.oc.Mask(), e.sh)
			freeze := make([]float64, e.ocnGrid.Size())
			for _, c := range []*Coupler{cp, rc} {
				c.AbsorbOcean(e.oc)
				seedPolarIce(c, freeze)
				c.SetIceFormation(freeze)
			}
			b := &twinBoundary{t: t, cp: cp, ref: newRefExchange(rc)}
			atm := e.atmosphere(t, b, workers, cp)
			dtOcn := e.ocfg.DtTracer
			for s := 1; s <= int(sphere.SecondsPerDay/e.acfg.Dt); s++ {
				atm.Step()
				if s%e.oceanEvery != 0 {
					continue
				}
				f := cp.DrainOceanForcing(dtOcn)
				rf := rc.DrainOceanForcing(dtOcn)
				b.same("Forcing.TauX", f.TauX, rf.TauX)
				b.same("Forcing.TauY", f.TauY, rf.TauY)
				b.same("Forcing.Heat", f.Heat, rf.Heat)
				b.same("Forcing.FreshWater", f.FreshWater, rf.FreshWater)
				e.oc.Step(f)
				u, v := e.oc.SurfaceCurrents()
				for _, c := range []*Coupler{cp, rc} {
					c.AbsorbOcean(e.oc)
					c.AdvectIce(u, v, dtOcn)
				}
			}
			if cov := cp.Ice.Coverage(); cov <= 0 {
				t.Fatalf("ice coverage %g after a day, want > 0", cov)
			}
		})
	}
}

// seedPolarIce lays 1.5 m of ice at 260 K over every wet ocean cell
// poleward of 55 degrees, and sets a freezing flux over the wet cells
// between 50 and 55 degrees, where no ice lies yet.
func seedPolarIce(cp *Coupler, freeze []float64) {
	g := cp.OcnGrid
	for j := 0; j < g.NLat(); j++ {
		lat := math.Abs(g.Lats[j]) * sphere.Rad2Deg
		for i := 0; i < g.NLon(); i++ {
			c := g.Index(j, i)
			switch {
			case cp.ocnMask[c] <= 0.5:
			case lat >= 55:
				cp.Ice.Thick[c], cp.Ice.TSurf[c] = 1.5, 260
			case lat >= 50:
				freeze[c] = 1e-4
			}
		}
	}
}

// earthRung is one rung of the registry's ladder on the synthetic Earth:
// the atmosphere configuration and grid, the ocean on its bathymetry, and
// the overlap between the two grids, with r5-quick's or paper-foam's
// cadence.
type earthRung struct {
	acfg       atmos.Config
	ocfg       ocean.Config
	oceanEvery int
	atmGrid    *sphere.Grid
	ocnGrid    *sphere.Grid
	oc         *ocean.Model
	sh         Shared
}

// newEarthRung builds the r5 rung (R5, 8 levels, 48x48x8 ocean) for m = 5
// and the paper's R15 over the 128x128x16 ocean for m = 15.
func newEarthRung(tb testing.TB, m int) *earthRung {
	e := &earthRung{acfg: atmos.DefaultConfig(), ocfg: ocean.DefaultConfig()}
	if m == 5 {
		e.acfg = atmos.ConfigForTruncation(spectral.Rhomboidal(5), 8)
		e.acfg.RadiationEvery = int(43200 / e.acfg.Dt)
		e.ocfg.NLat, e.ocfg.NLon, e.ocfg.NLev = 48, 48, 8
	}
	e.oceanEvery = int(21600 / e.acfg.Dt)
	e.ocfg.DtTracer = float64(e.oceanEvery) * e.acfg.Dt
	e.atmGrid = sphere.NewGaussianGrid(e.acfg.NLat, e.acfg.NLon)
	e.ocnGrid = sphere.NewMercatorGrid(e.ocfg.NLat, e.ocfg.NLon, e.ocfg.LatSouth, e.ocfg.LatNorth)
	oc, err := ocean.NewOnGrid(e.ocfg, data.OceanKMT(e.ocnGrid, e.ocfg.NLev), e.ocnGrid)
	if err != nil {
		tb.Fatal(err)
	}
	e.oc = oc
	e.sh = Shared{Overlap: BuildOverlap(e.atmGrid, e.ocnGrid)}
	return e
}

// atmosphere builds the rung's atmosphere over the earth orography with
// the given boundary, pooled together with cp when workers > 1 (the pool
// closes with the test).
func (e *earthRung) atmosphere(tb testing.TB, b atmos.Boundary, workers int, cp *Coupler) *atmos.Model {
	atm, err := atmos.NewShared(e.acfg, b, atmos.Shared{Grid: e.atmGrid})
	if err != nil {
		tb.Fatal(err)
	}
	atm.SetOrography(data.Earth().Orography(e.atmGrid))
	if workers > 1 {
		p := pool.New(workers)
		tb.Cleanup(p.Close)
		atm.SetPool(p)
		cp.SetPool(p)
	}
	return atm
}
