//go:build !race

package hocl

const raceEnabled = false
