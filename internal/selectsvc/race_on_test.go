//go:build race

package selectsvc

// raceEnabled: the race detector makes sync.Pool drop a quarter of what it
// is given, so byte budgets that assume a warmed pool do not hold under it.
const raceEnabled = true
