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

// want(+2) `//foam:sharedro must be attached to a struct type declaration, not a function`
//
//foam:sharedro
func sharedOnFunc() {}

// want(+2) `//foam:sharedro takes no arguments \(got "extra"\)`
//
//foam:sharedro extra
type argTables struct{ n int }

// want(+2) `//foam:sharedro must mark a struct type \(notStruct is not a struct\)`
//
//foam:sharedro
type notStruct int

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

// want(+2) `//foam:transient must be attached to a struct field, not a function`
//
//foam:transient buf scratch
func fnTransient() {}

// transientBox holds every way to write //foam:transient wrong.
type transientBox struct {
	//foam:transient
	// want(-1) `//foam:transient needs a field name and a reason: //foam:transient <field> <reason>`
	a int

	//foam:transient b
	// want(-1) `//foam:transient b is missing its reason`
	b int

	//foam:transient zz per-step scratch
	// want(-1) `//foam:transient names "zz", which this field declaration does not declare`
	c int
}

func body() {
	//foam:hotpath
	// want(-1) `misplaced //foam:hotpath`
	//foam:sharedro
	// want(-1) `misplaced //foam:sharedro: it must be the doc comment of a struct type declaration`
	_ = notAFunction
}
