package coupler

import (
	"math"

	"foam/internal/atmos"
	"foam/internal/data"
	"foam/internal/land"
	"foam/internal/ocean"
	"foam/internal/pool"
	"foam/internal/river"
	"foam/internal/seaice"
	"foam/internal/sphere"
)

// Coupler wires the atmosphere to the surface: land model, river routing,
// sea ice, and the ocean through the overlap grid. It implements
// atmos.Boundary, accumulates the atmosphere-side forcing for the ocean
// between the 6-hour ocean calls, and redistributes the ocean's state back.
type Coupler struct {
	AtmGrid *sphere.Grid
	OcnGrid *sphere.Grid
	Overlap *Overlap

	Land  *land.Model
	River *river.Model
	Ice   *seaice.Model

	// landFrac is the land fraction per atmosphere cell (1 = all land).
	landFrac []float64
	// wetAtmArea is the wet-ocean overlap area per atmosphere cell, m^2.
	wetAtmArea []float64

	// Ocean-side state mirrored on the ocean grid (refreshed by AbsorbOcean
	// or, in the message-passing configuration, by received messages).
	sstC    []float64 // deg C
	ocnMask []float64
	iceForm []float64 // kg/m^2/s freezing flux from the ocean clamp

	// sstTerm caches the SST-only flux terms of every wet ocean cell.
	// SetSST marks it stale; the next Exchange refreshes it.
	sstTerm  []sstTerms
	sstStale bool

	// Forcing accumulators on the ocean grid (averaged over the atmosphere
	// steps between ocean calls).
	accTauX, accTauY []float64 // N/m^2
	accHeat, accFW   []float64 // W/m^2, kg/m^2/s
	accSteps         int

	// Runoff accumulator on the atmosphere grid, kg/m^2/s.
	accRunoff []float64

	// Ocean-grid metrics for ice drift (lazy); ocnDx and ocnDy in m.
	ocnDx, ocnDy, ocnCos []float64

	// Scratch. The buffers below are reused every Exchange/DrainOceanForcing
	// call so the steady-state coupled step allocates nothing.
	exch        *atmos.SurfaceExchange
	atmTerm     []atmTerms // per atmosphere cell, refreshed every Exchange
	waterBudget WaterBudget
	runoffNow   []float64
	iceOut      []*seaice.Output // nil where no ice; points into iceOutBuf
	iceOutBuf   []seaice.Output
	drainF      *ocean.Forcing // returned by DrainOceanForcing, overwritten next call
	meanRunoff  []float64
	riverOnOcn  []float64

	// Shared-memory parallel flux computation (nil = serial). pieces holds
	// one pre-weighted flux result per overlap piece; the accumulation into
	// the atmosphere/ocean arrays stays serial in piece order so the sums
	// are bit-identical to the serial loop. phFlux is bound once in SetPool
	// (a closure literal per Exchange would allocate every step); exIn stages
	// its per-call input.
	pool   *pool.Pool
	pieces []pieceFlux
	exIn   *atmos.LowestLevel
	phFlux func(w, p0, p1 int)
}

// pieceFlux is the flux contribution of one overlap piece, already
// multiplied by its area weights.
type pieceFlux struct {
	ok bool // piece is wet and contributes
	// tsurf K, taux and tauy N/m^2, sens W/m^2, evap kg/m^2/s.
	tsurf, albedo, taux, tauy, sens, evap float64
	// otx and oty N/m^2, oheat W/m^2, ofw kg/m^2/s.
	otx, oty, oheat, ofw float64
}

// atmTerms are the open-water flux terms that vary only with the
// atmosphere cell: every wet piece under the cell shares them.
type atmTerms struct {
	wind float64 // lowest-level wind speed, m/s
	cn   float64 // neutral transfer coefficient over the wind's roughness
	rho  float64 // lowest-level air density, kg/m^3
	wEff float64 // wind speed floored at 1 m/s
}

// sstTerms are the open-water flux terms that vary only with the ocean
// cell's SST: every piece of the cell shares them until SetSST.
type sstTerms struct {
	sstK float64 // K
	es   float64 // saturation vapour pressure of the SST, Pa
	lwUp float64 // upward longwave 0.97·σ·T^4, W/m^2
}

// WaterBudget tracks the global hydrological cycle for closure tests
// (experiment E9). All terms are kg accumulated since Reset.
type WaterBudget struct {
	Precip, Evap float64 // over land
	Runoff       float64 // land -> rivers
	RiverToOcean float64 // rivers -> ocean
}

// New builds a coupler for the given grids using the synthetic Earth for
// masks, soils and river directions. ocnMask/kmt come from the ocean model.
func New(atmGrid, ocnGrid *sphere.Grid, ocnMask []float64) *Coupler {
	return NewShared(atmGrid, ocnGrid, ocnMask, Shared{})
}

// Shared carries prebuilt immutable inputs a coupler may adopt instead of
// rebuilding: the conservative overlap remap between the two grids, the
// river-routing network on the atmosphere grid, and the world's land mask
// and soil classification on the atmosphere grid. All are read-only after
// construction, so any number of couplers (one per ensemble member) may
// hold the same instances. Any field may be nil to build fresh from the
// synthetic Earth.
type Shared struct {
	Overlap *Overlap
	Rivers  *data.RiverNetwork
	Land    []bool // land mask at atmosphere cell centers
	Soil    []int  // soil classes at atmosphere cell centers
}

// NewShared builds a coupler over prebuilt shared tables (see Shared). The
// caller must have built them on these same grids.
func NewShared(atmGrid, ocnGrid *sphere.Grid, ocnMask []float64, sh Shared) *Coupler {
	cp := &Coupler{AtmGrid: atmGrid, OcnGrid: ocnGrid}
	if sh.Overlap != nil {
		cp.Overlap = sh.Overlap
	} else {
		cp.Overlap = BuildOverlap(atmGrid, ocnGrid)
	}
	cp.ocnMask = append([]float64(nil), ocnMask...)
	cp.initOcnGeometry()

	// Land cells on the atmosphere grid: the world's land, plus any cell
	// with no wet-ocean overlap (polar caps beyond the ocean domain become
	// ice-type land, standing in for the crude Arctic treatment the paper
	// acknowledges).
	oceanFrac := cp.Overlap.OceanFraction(cp.ocnMask)
	n := atmGrid.Size()
	mask := make([]bool, n)
	var types []int
	if sh.Soil != nil {
		// The polar-cap override below mutates the slice; never write
		// through to a shared table.
		types = append([]int(nil), sh.Soil...)
	} else {
		types = data.SoilTypes(atmGrid)
	}
	worldLand := sh.Land
	if worldLand == nil {
		worldLand = data.LandMask(atmGrid)
	}
	cp.landFrac = make([]float64, n)
	for j := 0; j < atmGrid.NLat(); j++ {
		for i := 0; i < atmGrid.NLon(); i++ {
			c := atmGrid.Index(j, i)
			cp.landFrac[c] = 1 - oceanFrac[c]
			isLand := worldLand[c]
			if isLand {
				cp.landFrac[c] = math.Max(cp.landFrac[c], 0.5)
			}
			if cp.landFrac[c] > 0.01 {
				mask[c] = true
				if !isLand && math.Abs(atmGrid.Lats[j]) > 66*sphere.Deg2Rad {
					types[c] = data.SoilIce // polar cap beyond the ocean grid
				}
			}
		}
	}
	cp.Land = land.New(atmGrid, types, mask)
	net := sh.Rivers
	if net == nil {
		net = data.BuildRivers(atmGrid)
	}
	cp.River = river.New(net)
	cp.Ice = seaice.New(ocnGrid.Size())

	// Wet overlap area per atmosphere cell, for ocean-piece weights.
	cp.wetAtmArea = make([]float64, n)
	for _, piece := range cp.Overlap.Cells {
		if piece.Ocn >= 0 && cp.ocnMask[piece.Ocn] > 0 {
			cp.wetAtmArea[piece.Atm] += piece.Area
		}
	}

	cp.sstC = make([]float64, ocnGrid.Size())
	for c := range cp.sstC {
		cp.sstC[c] = 15
	}
	cp.sstTerm = make([]sstTerms, ocnGrid.Size())
	cp.sstStale = true
	cp.iceForm = make([]float64, ocnGrid.Size())
	cp.accTauX = make([]float64, ocnGrid.Size())
	cp.accTauY = make([]float64, ocnGrid.Size())
	cp.accHeat = make([]float64, ocnGrid.Size())
	cp.accFW = make([]float64, ocnGrid.Size())
	cp.accRunoff = make([]float64, n)
	cp.exch = atmos.NewSurfaceExchange(n)
	cp.atmTerm = make([]atmTerms, n)
	m := ocnGrid.Size()
	cp.runoffNow = make([]float64, n)
	cp.iceOut = make([]*seaice.Output, m)
	cp.iceOutBuf = make([]seaice.Output, m)
	cp.drainF = ocean.NewForcing(m)
	cp.meanRunoff = make([]float64, n)
	cp.riverOnOcn = make([]float64, m)
	return cp
}

// SetPool attaches a pool used to parallelize the per-overlap-piece
// flux computation. The result is bit-identical to the serial loop: fluxes
// are computed concurrently into per-piece slots, then accumulated serially
// in piece order. Pass nil to return to the serial loop.
func (cp *Coupler) SetPool(p *pool.Pool) {
	cp.pool = p
	cp.pieces = nil
	cp.phFlux = nil
	if p.Workers() > 1 {
		cp.pieces = make([]pieceFlux, len(cp.Overlap.Cells))
		cells := cp.Overlap.Cells
		cp.phFlux = func(_, p0, p1 int) {
			for pi := p0; pi < p1; pi++ {
				cp.computePieceFlux(&cp.pieces[pi], &cells[pi], cp.exIn, cp.iceOut)
			}
		}
	}
}

// LandFraction returns the per-atm-cell land fraction.
func (cp *Coupler) LandFraction() []float64 { return cp.landFrac }

// SetSST installs the ocean surface temperature (deg C, ocean grid) used
// for flux computation until the next update. It is the only writer of the
// SST mirror, so it marks the SST terms stale for the next Exchange.
func (cp *Coupler) SetSST(sst []float64) {
	copy(cp.sstC, sst)
	cp.sstStale = true
}

// SetIceFormation installs the ocean's freezing flux diagnostic.
func (cp *Coupler) SetIceFormation(fl []float64) { copy(cp.iceForm, fl) }

// AbsorbOcean refreshes the mirrored ocean state from a local ocean model.
func (cp *Coupler) AbsorbOcean(oc *ocean.Model) {
	cp.SetSST(oc.SST())
	cp.SetIceFormation(oc.IceFormation())
}

// AdvectIce drifts the sea ice with the ocean surface currents over one
// coupling interval (free drift; the dynamic extension the paper flags as
// future work).
func (cp *Coupler) AdvectIce(u, v []float64, dt float64) {
	g := cp.OcnGrid
	cp.Ice.Advect(u, v, cp.ocnMask, cp.ocnDx, cp.ocnDy, cp.ocnCos, g.NLat(), g.NLon(), dt)
}

// initOcnGeometry precomputes the per-row ocean-grid spacings the ice
// drift uses, once, at construction.
func (cp *Coupler) initOcnGeometry() {
	g := cp.OcnGrid
	nlat, nlon := g.NLat(), g.NLon()
	cp.ocnDx = make([]float64, nlat)
	cp.ocnDy = make([]float64, nlat)
	cp.ocnCos = make([]float64, nlat)
	dlon := 2 * math.Pi / float64(nlon)
	for j := 0; j < nlat; j++ {
		cp.ocnCos[j] = math.Cos(g.Lats[j])
		cp.ocnDx[j] = sphere.Radius * cp.ocnCos[j] * dlon
		switch {
		case j == 0:
			cp.ocnDy[j] = sphere.Radius * (g.Lats[1] - g.Lats[0])
		case j == nlat-1:
			cp.ocnDy[j] = sphere.Radius * (g.Lats[j] - g.Lats[j-1])
		default:
			cp.ocnDy[j] = sphere.Radius * 0.5 * (g.Lats[j+1] - g.Lats[j-1])
		}
	}
}

// Budget returns the accumulated water budget terms.
func (cp *Coupler) Budget() WaterBudget { return cp.waterBudget }

// ResetBudget zeroes the accumulated water budget.
func (cp *Coupler) ResetBudget() { cp.waterBudget = WaterBudget{} }

// Exchange implements atmos.Boundary: one atmosphere-step surface exchange.
func (cp *Coupler) Exchange(in *atmos.LowestLevel, dt float64) *atmos.SurfaceExchange {
	g := cp.AtmGrid
	ex := cp.exch
	n := g.Size()
	// Zero the composite outputs.
	for c := 0; c < n; c++ {
		ex.TSurf[c] = 0
		ex.Albedo[c] = 0
		ex.TauX[c] = 0
		ex.TauY[c] = 0
		ex.Sensible[c] = 0
		ex.Evap[c] = 0
	}

	// --- Land fraction of every land-flagged cell.
	runoffNow := cp.runoffNow
	for c := range runoffNow {
		runoffNow[c] = 0
	}
	for j := 0; j < g.NLat(); j++ {
		for i := 0; i < g.NLon(); i++ {
			c := g.Index(j, i)
			if !cp.Land.IsLand(c) {
				continue
			}
			lin := land.Input{
				SWDown: in.SWDown[c], LWDown: in.LWDown[c],
				TAir: in.T[c], QAir: in.Q[c], UAir: in.U[c], VAir: in.V[c],
				Ps: in.Ps[c], ZRef: in.Z[c],
				Rain: in.RainRate[c], Snowfall: in.SnowRate[c],
			}
			lo := cp.Land.Step(c, lin, dt)
			w := cp.landFrac[c]
			ex.TSurf[c] += w * lo.TSurf
			ex.Albedo[c] += w * lo.Albedo
			ex.TauX[c] += w * lo.TauX
			ex.TauY[c] += w * lo.TauY
			ex.Sensible[c] += w * lo.Sensible
			ex.Evap[c] += w * lo.Evap
			runoffNow[c] = (lo.Runoff + lo.SnowShed) * w
			area := g.Area(j, i)
			cp.waterBudget.Precip += (in.RainRate[c] + in.SnowRate[c]) * w * area * dt
			cp.waterBudget.Evap += lo.Evap * w * area * dt
			cp.waterBudget.Runoff += runoffNow[c] * area * dt
		}
	}
	for c := 0; c < n; c++ {
		cp.accRunoff[c] += runoffNow[c]
	}

	// --- Sea ice on the ocean grid, driven by the atmosphere averaged over
	// each ice cell's own pieces.
	iceOut := cp.iceOut
	for oc := range iceOut {
		iceOut[oc] = nil
	}
	for oc := 0; oc < cp.OcnGrid.Size(); oc++ {
		if cp.ocnMask[oc] < 0.5 {
			continue
		}
		if cp.Ice.Present(oc) || cp.iceForm[oc] > 0 {
			out := cp.Ice.Step(oc, cp.iceInput(oc, in), dt)
			melt := cp.Ice.BasalMelt(oc, cp.sstC[oc], dt)
			out.MeltWater += melt
			cp.iceOutBuf[oc] = out
			iceOut[oc] = &cp.iceOutBuf[oc]
		}
	}

	// --- Per-overlap-piece air-sea fluxes (the paper's Figure 1 scheme).
	// The terms that vary on one grid only are evaluated once per cell of
	// that grid. Each piece's pre-weighted flux is then independent of
	// every other piece, so the computation parallelizes; the accumulation
	// runs serially in piece order either way, keeping the sums
	// bit-identical.
	if cp.sstStale {
		cp.refreshSSTTerms()
	}
	cp.refreshAtmTerms(in)
	cells := cp.Overlap.Cells
	if cp.pieces != nil {
		cp.exIn = in
		cp.pool.Run(len(cells), cp.phFlux)
		cp.exIn = nil
		for pi := range cells {
			cp.accumulatePiece(&cells[pi], &cp.pieces[pi], ex)
		}
	} else {
		var pf pieceFlux
		for pi := range cells {
			cp.computePieceFlux(&pf, &cells[pi], in, iceOut)
			cp.accumulatePiece(&cells[pi], &pf, ex)
		}
	}
	cp.accSteps++

	// Normalize mixed cells: where land covered only part of the area the
	// weights already sum to one; ensure surface temperature is sane where
	// nothing contributed (should not happen).
	for c := 0; c < n; c++ {
		if ex.TSurf[c] <= 0 {
			ex.TSurf[c] = 273
			ex.Albedo[c] = 0.3
		}
	}
	return ex
}

// iceInput builds ocean cell oc's sea-ice forcing: each atmosphere field
// area-averaged over the cell's own overlap pieces, summed in piece order
// with AtmToOcnInto's expression, so each value is the remap's bit for bit.
func (cp *Coupler) iceInput(oc int, in *atmos.LowestLevel) seaice.Input {
	ov := cp.Overlap
	iin := seaice.Input{OceanFreeze: cp.iceForm[oc]}
	area := ov.OcnArea[oc]
	if area <= 0 {
		return iin
	}
	for _, pi := range ov.ocnPieces(oc) {
		piece := &ov.Cells[pi]
		a, w := piece.Atm, piece.Area
		iin.SWDown += in.SWDown[a] * w / area
		iin.LWDown += in.LWDown[a] * w / area
		iin.TAir += in.T[a] * w / area
		iin.QAir += in.Q[a] * w / area
		iin.UAir += in.U[a] * w / area
		iin.VAir += in.V[a] * w / area
		iin.Ps += in.Ps[a] * w / area
		iin.ZRef += in.Z[a] * w / area
		iin.Snowfall += in.SnowRate[a] * w / area
	}
	return iin
}

// refreshSSTTerms evaluates the SST-only flux terms of every wet ocean
// cell from the mirrored SST.
func (cp *Coupler) refreshSSTTerms() {
	for oc, sst := range cp.sstC {
		if cp.ocnMask[oc] < 0.5 {
			continue
		}
		sstK := sst + 273.15
		cp.sstTerm[oc] = sstTerms{
			sstK: sstK,
			es:   atmos.SatVap(sstK),
			lwUp: 0.97 * atmos.StefBo * atmos.Pow4(sstK),
		}
	}
	cp.sstStale = false
}

// refreshAtmTerms evaluates the atmosphere-only flux terms of every
// atmosphere cell with wet area: the wind, the neutral coefficient over
// the wind's Charnock roughness, the air density and the floored wind.
func (cp *Coupler) refreshAtmTerms(in *atmos.LowestLevel) {
	for a, wet := range cp.wetAtmArea {
		if wet <= 0 {
			continue
		}
		wind := math.Hypot(in.U[a], in.V[a])
		cp.atmTerm[a] = atmTerms{
			wind: wind,
			cn:   atmos.NeutralCoefficient(in.Z[a], atmos.OceanRoughness(wind)),
			rho:  in.Ps[a] / (atmos.RDry * in.T[a]),
			wEff: max(wind, 1),
		}
	}
}

// computePieceFlux evaluates one overlap piece's air-sea fluxes into pf,
// pre-multiplied by the piece's area weights. It only reads shared
// state, so pieces can be computed concurrently.
func (cp *Coupler) computePieceFlux(pf *pieceFlux, piece *OverlapCell, in *atmos.LowestLevel, iceOut []*seaice.Output) {
	oc := piece.Ocn
	if oc < 0 || cp.ocnMask[oc] < 0.5 {
		pf.ok = false
		return
	}
	a := piece.Atm
	if cp.wetAtmArea[a] <= 0 {
		pf.ok = false
		return
	}
	wAtm := piece.Area / cp.wetAtmArea[a] * (1 - cp.landFrac[a])
	wOcn := piece.Area / cp.Overlap.OcnArea[oc]
	if io := iceOut[oc]; io != nil && cp.Ice.Present(oc) {
		// Ice-covered piece: the ice model already produced fluxes. The
		// ocean's freeze clamp accounted for the latent heat and brine of
		// formation internally; only melt water and conduction cross here.
		*pf = pieceFlux{
			ok:    true,
			tsurf: wAtm * io.TSurf, albedo: wAtm * io.Albedo,
			taux: wAtm * io.TauXAtm, tauy: wAtm * io.TauYAtm,
			sens: wAtm * io.Sensible, evap: wAtm * io.Evap,
			otx: wOcn * io.TauXOcean, oty: wOcn * io.TauYOcean,
			oheat: wOcn * io.OceanHeat, ofw: wOcn * io.MeltWater,
		}
		return
	}
	// Open-water piece: CCM3 bulk formulas with wind-dependent roughness
	// over the ocean (BulkCoefficients and SatHum, split at the grid
	// boundary: only the stability and the pressure cap vary per piece).
	at, st := &cp.atmTerm[a], &cp.sstTerm[oc]
	sstK := st.sstK
	ri := atmos.BulkRichardson(in.Z[a], sstK, in.T[a], in.Q[a], at.wind)
	cd := at.cn * atmos.StabilityFactor(ri)
	ce := cd
	rho, wEff := at.rho, at.wEff
	tx := rho * cd * wEff * in.U[a]
	ty := rho * cd * wEff * in.V[a]
	sh := rho * atmos.Cp * ce * wEff * (sstK - in.T[a])
	qs := atmos.SatHumFromVap(st.es, in.Ps[a])
	ev := rho * ce * wEff * max(qs-in.Q[a], -in.Q[a])

	// Ocean side: stress, net heat, fresh water. Snow falling on open
	// water melts: mass gain, heat loss.
	lat := atmos.LVap * ev
	netHeat := in.SWDown[a]*(1-0.07) + 0.97*in.LWDown[a] - st.lwUp - sh - lat
	netHeat -= in.SnowRate[a] * atmos.LFus
	// Field by field: a composite literal would be built on the stack and
	// block-copied into *pf for every piece.
	pf.ok = true
	pf.tsurf, pf.albedo = wAtm*sstK, wAtm*0.07
	pf.taux, pf.tauy = wAtm*tx, wAtm*ty
	pf.sens, pf.evap = wAtm*sh, wAtm*ev
	pf.otx, pf.oty = wOcn*clampStress(tx, MaxStressIntoOcean), wOcn*clampStress(ty, MaxStressIntoOcean)
	pf.oheat = wOcn * clampHeat(netHeat, MaxHeatIntoOcean)
	pf.ofw = wOcn * (in.RainRate[a] + in.SnowRate[a] - ev)
}

// accumulatePiece adds one piece's pre-weighted fluxes into the composite
// atmosphere exchange and the ocean forcing accumulators.
func (cp *Coupler) accumulatePiece(piece *OverlapCell, pf *pieceFlux, ex *atmos.SurfaceExchange) {
	if !pf.ok {
		return
	}
	a, oc := piece.Atm, piece.Ocn
	ex.TSurf[a] += pf.tsurf
	ex.Albedo[a] += pf.albedo
	ex.TauX[a] += pf.taux
	ex.TauY[a] += pf.tauy
	ex.Sensible[a] += pf.sens
	ex.Evap[a] += pf.evap
	cp.accTauX[oc] += pf.otx
	cp.accTauY[oc] += pf.oty
	cp.accHeat[oc] += pf.oheat
	cp.accFW[oc] += pf.ofw
}

// Flux bounds applied by clampAbs before atmosphere-side fluxes reach the
// ocean accumulators. The magnitudes are set just above the
// strongest values real forcing reaches, so they only bite during the
// atmosphere's first-day spin-up shock (see the coupler bounds table test
// for the physical justification of each number).
const (
	// MaxStressIntoOcean caps the wind stress passed to the ocean. Observed
	// storm-force stress peaks near 1.5 N/m^2 (hurricane drag saturation);
	// 2 N/m^2 passes everything physical.
	MaxStressIntoOcean = 2.0
	// MaxHeatIntoOcean caps the net surface heat flux magnitude. Peak
	// observed air-sea fluxes (cold-air outbreaks over western boundary
	// currents) reach ~1000 W/m^2; 1500 W/m^2 passes everything physical.
	MaxHeatIntoOcean = 1500.0
)

// clampStress bounds a stress (N/m^2) and clampHeat a heat flux (W/m^2),
// each with the bound of its own unit.
func clampStress(x, lim float64) float64 { return clampAbs(x, lim) }

func clampHeat(x, lim float64) float64 { return clampAbs(x, lim) }

// clampAbs bounds a flux to a physically plausible magnitude, protecting
// the ocean from the atmosphere's first-day spin-up shock.
func clampAbs(x, lim float64) float64 {
	if x > lim {
		return lim
	}
	if x < -lim {
		return -lim
	}
	return x
}

// DrainOceanForcing returns the averaged ocean forcing accumulated since
// the last call (the 6-hour coupling interval), including routed river
// water, and resets the accumulators. dt is the ocean step the forcing will
// drive. The returned Forcing is owned by the coupler and overwritten by the
// next call; consume it before draining again.
func (cp *Coupler) DrainOceanForcing(dt float64) *ocean.Forcing {
	m := cp.OcnGrid.Size()
	f := cp.drainF
	steps := float64(cp.accSteps)
	if steps <= 0 {
		steps = 1
	}
	for c := 0; c < m; c++ {
		f.TauX[c] = cp.accTauX[c] / steps
		f.TauY[c] = cp.accTauY[c] / steps
		f.Heat[c] = cp.accHeat[c] / steps
		f.FreshWater[c] = cp.accFW[c] / steps
		cp.accTauX[c] = 0
		cp.accTauY[c] = 0
		cp.accHeat[c] = 0
		cp.accFW[c] = 0
	}
	// Route the accumulated runoff through the rivers and inject the mouth
	// outflow (conservatively remapped to the ocean grid).
	n := cp.AtmGrid.Size()
	meanRunoff := cp.meanRunoff
	for c := 0; c < n; c++ {
		meanRunoff[c] = cp.accRunoff[c] / steps
		cp.accRunoff[c] = 0
	}
	mouthFlux := cp.River.Step(meanRunoff, dt)
	riverOnOcn := cp.riverOnOcn
	cp.Overlap.AtmToOcnInto(riverOnOcn, mouthFlux)
	// Renormalize onto wet cells so no river water is lost on dry overlap.
	atmIn := cp.River.FluxIntegral(mouthFlux)
	var ocnIn float64
	og := cp.OcnGrid
	for j := 0; j < og.NLat(); j++ {
		for i := 0; i < og.NLon(); i++ {
			c := og.Index(j, i)
			if cp.ocnMask[c] < 0.5 {
				riverOnOcn[c] = 0
				continue
			}
			ocnIn += riverOnOcn[c] * og.Area(j, i)
		}
	}
	if ocnIn > 0 {
		scale := atmIn / ocnIn
		for c := range riverOnOcn {
			riverOnOcn[c] *= scale
		}
	}
	for c := 0; c < m; c++ {
		f.FreshWater[c] += riverOnOcn[c]
	}
	cp.waterBudget.RiverToOcean += atmIn * dt
	cp.accSteps = 0
	return f
}

// MirrorSnapshot returns copies of the mirrored ocean surface state (SST
// and freezing flux) the flux computation currently reads. Under a lagged
// schedule the mirror trails the ocean's live state by one coupling
// interval, so checkpoints must carry it explicitly.
func (cp *Coupler) MirrorSnapshot() (sst, iceForm []float64) {
	return append([]float64(nil), cp.sstC...), append([]float64(nil), cp.iceForm...)
}

// RestoreAccum installs saved ocean-forcing accumulators, so a checkpoint
// taken mid-coupling-interval resumes with the exact partial sums the
// original run carried into its next DrainOceanForcing. The caller checks
// the lengths (core.Model.Restore does).
func (cp *Coupler) RestoreAccum(tauX, tauY, heat, fw, runoff []float64, steps int) {
	copy(cp.accTauX, tauX)
	copy(cp.accTauY, tauY)
	copy(cp.accHeat, heat)
	copy(cp.accFW, fw)
	copy(cp.accRunoff, runoff)
	cp.accSteps = steps
}

// AccumSnapshot returns copies of the ocean-forcing accumulators and the
// atmosphere steps they cover, for core.Model.Checkpoint; RestoreAccum
// installs them again.
func (cp *Coupler) AccumSnapshot() (tauX, tauY, heat, fw, runoff []float64, steps int) {
	return append([]float64(nil), cp.accTauX...),
		append([]float64(nil), cp.accTauY...),
		append([]float64(nil), cp.accHeat...),
		append([]float64(nil), cp.accFW...),
		append([]float64(nil), cp.accRunoff...),
		cp.accSteps
}
