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

// want(+2) `//foam:allow nondeterminism is missing its reason`
//
//foam:allow nondeterminism
func allowNoReason() {}

// want(+3) `conflicted carries conflicting foam annotations`
//
//foam:hotpath
//foam:coldpath
func conflicted() {}

// The retired verbs are unknown directives: a leftover one is a finding.
//
// want(+2) `unknown foam directive //foam:sharedro`
//
//foam:sharedro
type retired struct {
	//foam:transient a per-step scratch
	// want(-1) `unknown foam directive //foam:transient`
	a int
	//foam:units b=m
	// want(-1) `unknown foam directive //foam:units`
	b float64
}

func body() {
	//foam:hotpath
	// want(-1) `misplaced //foam:hotpath`
	_ = notAFunction
}
