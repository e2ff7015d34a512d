package core

// SetTestHookClaim installs fn as the parallel search's claim hook (see
// testHookClaim) until the returned restore function runs. Callers must
// not run in parallel with other tests of the package.
func SetTestHookClaim(fn func(i int64)) (restore func()) {
	prev := testHookClaim
	testHookClaim = fn
	return func() { testHookClaim = prev }
}
