package atmos

import (
	"math"
	"sort"

	"foam/internal/sphere"
)

// bindSLPhases binds the semi-Lagrangian transport phases into the step
// workspace (see bindPhases for why these are bound once).
func (m *Model) bindSLPhases(w *work) {
	nlat, nlon, nlev := m.cfg.NLat, m.cfg.NLon, m.cfg.NLev
	dt := m.cfg.Dt
	a := sphere.Radius
	dlon := 2 * math.Pi / float64(nlon)

	// Horizontal step: levels are independent (departure points and the
	// interpolation both use level-k fields only); per-worker target buffer.
	w.phSLHoriz = func(worker, k0, k1 int) {
		qNew := w.qNew[worker]
		for k := k0; k < k1; k++ {
			q := m.q[k]
			for j := 0; j < nlat; j++ {
				om2 := m.geom.oneMu2[j]
				cosl := math.Sqrt(om2)
				lat := w.lats[j]
				for i := 0; i < nlon; i++ {
					c := j*nlon + i
					lam := dlon * float64(i)
					lamD := lam - w.U[k][c]*dt/(a*om2)
					latD := lat - w.V[k][c]*dt/(a*cosl)
					qNew[c] = interpLatLon(q, w.lats, nlon, latD, lamD)
				}
			}
			copy(q, qNew)
		}
	}

	// Vertical upstream transport with the diagnosed sigma velocity:
	// column-local, parallel over cells with a per-worker column buffer.
	w.phSLVert = func(worker, c0, c1 int) {
		colQ := w.colQ[worker]
		for c := c0; c < c1; c++ {
			for k := 0; k < nlev; k++ {
				colQ[k] = m.q[k][c]
			}
			for k := 0; k < nlev; k++ {
				var tend float64
				if k > 0 {
					sd := w.sdot[k][c]
					if sd > 0 { // downward motion brings air from above
						tend -= sd * (colQ[k] - colQ[k-1]) / (m.vg.Full[k] - m.vg.Full[k-1])
					}
				}
				if k < nlev-1 {
					sd := w.sdot[k+1][c]
					if sd < 0 { // upward motion brings air from below
						tend -= sd * (colQ[k+1] - colQ[k]) / (m.vg.Full[k+1] - m.vg.Full[k])
					}
				}
				m.q[k][c] = math.Max(colQ[k]+tend*dt, 1e-9)
			}
		}
	}
}

// advectMoisture transports the grid specific humidity with a
// semi-Lagrangian step in the horizontal (the PCCM2 approach the paper
// cites) and upstream differencing in the vertical, using the winds and
// sigma velocity computed by the preceding dynamics step.
func (m *Model) advectMoisture(*specState) {
	w := m.phy.w
	if w == nil {
		return
	}
	m.pool.Run(m.cfg.NLev, w.phSLHoriz)
	m.pool.Run(m.cfg.NLat*m.cfg.NLon, w.phSLVert)
}

// interpLatLon bilinearly interpolates a row-major (lat ascending, lon
// periodic) field at the given point, clamping latitude to the grid rows.
func interpLatLon(f, lats []float64, nlon int, lat, lon float64) float64 {
	nlat := len(lats)
	// Longitude: periodic.
	dlon := 2 * math.Pi / float64(nlon)
	lon = math.Mod(lon, 2*math.Pi)
	if lon < 0 {
		lon += 2 * math.Pi
	}
	fi := lon / dlon
	i0 := int(math.Floor(fi)) % nlon
	i1 := (i0 + 1) % nlon
	wx := fi - math.Floor(fi)

	// Latitude: clamp to [lats[0], lats[nlat-1]].
	if lat <= lats[0] {
		return (1-wx)*f[i0] + wx*f[i1]
	}
	if lat >= lats[nlat-1] {
		base := (nlat - 1) * nlon
		return (1-wx)*f[base+i0] + wx*f[base+i1]
	}
	j1 := sort.SearchFloat64s(lats, lat)
	j0 := j1 - 1
	wy := (lat - lats[j0]) / (lats[j1] - lats[j0])
	b0 := j0 * nlon
	b1 := j1 * nlon
	v0 := (1-wx)*f[b0+i0] + wx*f[b0+i1]
	v1 := (1-wx)*f[b1+i0] + wx*f[b1+i1]
	return (1-wy)*v0 + wy*v1
}
