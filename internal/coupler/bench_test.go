package coupler

import (
	"fmt"
	"testing"

	"foam/internal/atmos"
)

// lastLowest is a boundary that records the atmosphere's lowest level and
// forwards to the coupler.
type lastLowest struct {
	cp *Coupler
	in *atmos.LowestLevel
}

func (l *lastLowest) Exchange(in *atmos.LowestLevel, dt float64) *atmos.SurfaceExchange {
	l.in = in
	return l.cp.Exchange(in, dt)
}

// BenchmarkExchange times one serial surface exchange at the r5 rung and
// at the paper's R15, from the lowest level of an atmosphere stepped past
// its startup. The SST arrives once per coupling interval, as it does in
// the coupled model, so the SST-only terms are refreshed at that cadence.
func BenchmarkExchange(b *testing.B) {
	for _, m := range []int{5, 15} {
		b.Run(fmt.Sprintf("R%d", m), func(b *testing.B) {
			e := newEarthRung(b, m)
			cp := NewShared(e.atmGrid, e.ocnGrid, e.oc.Mask(), e.sh)
			cp.AbsorbOcean(e.oc)
			rec := &lastLowest{cp: cp}
			atm := e.atmosphere(b, rec, 1, cp)
			for s := 0; s < 4; s++ {
				atm.Step()
			}
			sst := e.oc.SST()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%e.oceanEvery == 0 {
					cp.SetSST(sst)
				}
				cp.Exchange(rec.in, e.acfg.Dt)
			}
		})
	}
}
