package exec

// RunWallClockWrapped is runWallClock for the external tests, which wrap
// the backend with internal/faultinject (an importer of this package).
var RunWallClockWrapped = runWallClock
