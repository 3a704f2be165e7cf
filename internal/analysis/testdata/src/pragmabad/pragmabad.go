// Package pragmabad holds every way to write a foam directive wrong;
// each one must be reported by the pragma pseudo-analyzer, never
// silently ignored.
package pragmabad

//foam:frobnicate
// want(-1) `unknown foam directive //foam:frobnicate`

// foam:hotpath
// want(-1) `no space allowed between // and foam:`

// want(+2) `misplaced //foam:hotpath`
//
//foam:hotpath
var notAFunction int

// want(+2) `//foam:hotpath takes no arguments`
//
//foam:hotpath extra junk
func extraArgs() {}

// want(+2) `//foam:deterministic must be in the package doc comment`
//
//foam:deterministic
func detOnFunc() {}

// want(+2) `//foam:allow needs an analyzer name and a reason`
//
//foam:allow
func allowBare() {}

// want(+2) `//foam:allow names unknown analyzer "bogus"`
//
//foam:allow bogus because reasons
func allowUnknown() {}

// want(+2) `//foam:allow floatcmp is missing its reason`
//
//foam:allow floatcmp
func allowNoReason() {}

// want(+3) `conflicted carries conflicting foam annotations`
//
//foam:hotpath
//foam:coldpath
func conflicted() {}

// want(+2) `//foam:units needs at least one <name>=<unit-expr> pair`
//
//foam:units
var uBare float64

// want(+2) `//foam:units argument "uPair" is not of the form <name>=<unit-expr>`
//
//foam:units uPair
var uPair float64

// want(+2) `//foam:units uExpr: bad unit expression`
//
//foam:units uExpr=furlong/s
var uExpr float64

// want(+2) `//foam:units names "other", which this declaration does not declare`
//
//foam:units other=m
var uName float64

// want(+2) `//foam:units on uString: type string has no numeric elements to carry a unit`
//
//foam:units uString=m
var uString string

// want(+2) `misplaced //foam:units: it must be attached to a struct field, var/const spec, or func declaration`
//
//foam:units T=K
type uType struct{ T float64 }

// want(+2) `//foam:units names "zz", which is not a parameter or result of fnUnits`
//
//foam:units zz=m
func fnUnits(a float64) float64 { return a }

// want(+2) `//foam:units return= needs exactly one result \(fnTwo has 2\)`
//
//foam:units return=m
func fnTwo() (float64, float64) { return 0, 0 }

// The retired verbs are unknown directives: a leftover one is a finding.
//
// want(+2) `unknown foam directive //foam:sharedro`
//
//foam:sharedro
type retired struct {
	//foam:transient a per-step scratch
	// want(-1) `unknown foam directive //foam:transient`
	a int
}

func body() {
	//foam:hotpath
	// want(-1) `misplaced //foam:hotpath`
	_ = notAFunction
}
