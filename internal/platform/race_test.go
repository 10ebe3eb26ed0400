//go:build race

package platform_test

func init() { raceBuild = true }
