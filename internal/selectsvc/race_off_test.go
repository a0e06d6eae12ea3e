//go:build !race

package selectsvc

const raceEnabled = false
