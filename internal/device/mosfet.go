package device

// MOSFET is a level-1 (Shichman–Hodges) MOS transistor with channel-length
// modulation and constant gate-overlap capacitances. The bulk is tied to the
// source internally (no body effect), which matches the mixer circuits of the
// paper where sources and bulks share a rail or a common tail node.
//
// The square-law is C¹ across both the cutoff (vgs = Vt) and the
// triode/saturation (vds = vdsat) boundaries, which is what Newton needs.
// Drain–source symmetry is handled by swapping terminals when vds < 0.
type MOSFET struct {
	Inst    string
	D, G, S int // unknown indices

	TypeP  bool    // true for PMOS
	Vt0    float64 // threshold voltage (V); default 0.5 (−0.5 for PMOS)
	KP     float64 // transconductance parameter KP·W/L (A/V²); default 2e-4
	W, L   float64 // optional geometry; if both >0, multiplies KP by W/L
	Lambda float64 // channel-length modulation (1/V); default 0
	Cgs    float64 // constant gate–source capacitance (F)
	Cgd    float64 // constant gate–drain capacitance (F)
}

// Name returns the instance name.
func (m *MOSFET) Name() string { return m.Inst }

func (m *MOSFET) beta() float64 {
	kp := m.KP
	if kp <= 0 {
		kp = 2e-4
	}
	if m.W > 0 && m.L > 0 {
		kp *= m.W / m.L
	}
	return kp
}

func (m *MOSFET) vt() float64 {
	if m.Vt0 != 0 {
		return m.Vt0
	}
	if m.TypeP {
		return -0.5
	}
	return 0.5
}

// ids computes the NMOS drain current and partial derivatives for vds ≥ 0.
func (m *MOSFET) idsN(vgs, vds float64) (id, gm, gds float64) {
	vth := m.vt()
	if m.TypeP {
		vth = -vth // caller has already mirrored voltages for PMOS
	}
	vov := vgs - vth
	if vov <= 0 {
		return 0, 0, 0
	}
	b := m.beta()
	lam := m.Lambda
	clm := 1 + lam*vds
	if vds < vov {
		// Triode.
		id = b * (vov*vds - 0.5*vds*vds) * clm
		gm = b * vds * clm
		gds = b*(vov-vds)*clm + b*(vov*vds-0.5*vds*vds)*lam
	} else {
		// Saturation.
		id = 0.5 * b * vov * vov * clm
		gm = b * vov * clm
		gds = 0.5 * b * vov * vov * lam
	}
	return id, gm, gds
}

// Stamp adds the MOSFET's contributions. Derivatives are assembled with
// respect to the actual node unknowns vd, vg, vs by chain rule, carefully
// handling the swapped (vds < 0) case.
func (m *MOSFET) Stamp(s *Stamp) {
	vg, vd, vs := s.V(m.G), s.V(m.D), s.V(m.S)

	sign := 1.0
	mg, md, ms := vg, vd, vs
	if m.TypeP {
		mg, md, ms = -vg, -vd, -vs
		sign = -1
	}
	vds := md - ms
	var id, gm, gds float64
	var dIdVg, dIdVd, dIdVs float64
	if vds >= 0 {
		id, gm, gds = m.idsN(mg-ms, vds)
		// id = f(vgs, vds): ∂/∂vg = gm, ∂/∂vd = gds, ∂/∂vs = −gm−gds.
		dIdVg, dIdVd, dIdVs = gm, gds, -gm-gds
	} else {
		// Swapped: i' = f(vgd', vsd') flows drain←source; physical drain
		// current is −i'.
		ip, gmp, gdsp := m.idsN(mg-md, -vds)
		id = -ip
		// i' depends on vgs' = vg−vd and vds' = vs−vd.
		// ∂id/∂vg = −gm', ∂id/∂vs = −gds', ∂id/∂vd = gm'+gds'.
		dIdVg, dIdVs, dIdVd = -gmp, -gdsp, gmp+gdsp
		_ = gm
		_ = gds
	}
	// Undo PMOS mirroring: voltages were negated, current negated.
	id *= sign
	// d(sign·f(−v))/dv = sign·(−f') ; sign=−1 → f'. Net: derivatives w.r.t.
	// physical voltages equal the mirrored derivatives unchanged.
	// (−1 from current mirror × −1 from argument mirror.)

	s.AddF(m.D, id)
	s.AddF(m.S, -id)
	if s.Jac {
		s.AddG(m.D, m.G, dIdVg)
		s.AddG(m.D, m.D, dIdVd)
		s.AddG(m.D, m.S, dIdVs)
		s.AddG(m.S, m.G, -dIdVg)
		s.AddG(m.S, m.D, -dIdVd)
		s.AddG(m.S, m.S, -dIdVs)
	}

	// Overlap capacitances (linear).
	if m.Cgs > 0 {
		q := m.Cgs * (vg - vs)
		s.AddQ(m.G, q)
		s.AddQ(m.S, -q)
		if s.Jac {
			s.AddC(m.G, m.G, m.Cgs)
			s.AddC(m.G, m.S, -m.Cgs)
			s.AddC(m.S, m.G, -m.Cgs)
			s.AddC(m.S, m.S, m.Cgs)
		}
	}
	if m.Cgd > 0 {
		q := m.Cgd * (vg - vd)
		s.AddQ(m.G, q)
		s.AddQ(m.D, -q)
		if s.Jac {
			s.AddC(m.G, m.G, m.Cgd)
			s.AddC(m.G, m.D, -m.Cgd)
			s.AddC(m.D, m.G, -m.Cgd)
			s.AddC(m.D, m.D, m.Cgd)
		}
	}
}
