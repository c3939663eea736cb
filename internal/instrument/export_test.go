package instrument

// SetPrepareHook installs fn as the observer of every Prepare a Result
// runs and returns the function that removes it.
func SetPrepareHook(fn func(*Result)) (restore func()) {
	prepareHook = fn
	return func() { prepareHook = nil }
}
