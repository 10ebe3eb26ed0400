//go:build race

package cpu_test

func init() { raceBuild = true }
