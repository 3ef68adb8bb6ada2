package main

import (
	"fmt"

	"leapme/internal/analysis/deadexport/testdata/src/internal/shapes"
)

func main() {
	fmt.Println(shapes.New().Size() + shapes.Small())
}
