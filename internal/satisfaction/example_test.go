package satisfaction_test

import (
	"fmt"

	"sbqa/internal/satisfaction"
)

// ExampleNewProvider shows Definition 2, including its zero clause: a
// provider that performed none of the proposed queries is maximally
// dissatisfied.
func ExampleNewProvider() {
	tr := satisfaction.NewProvider(10)
	tr.Record(0.8, false) // proposed a liked query, did not get it
	fmt.Printf("%.2f\n", tr.Satisfaction())
	tr.Record(0.8, true) // performs one it likes: unit (0.8+1)/2
	fmt.Printf("%.2f\n", tr.Satisfaction())
	// Output:
	// 0.00
	// 0.90
}
