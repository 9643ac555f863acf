package lib

// Dead is reached by nothing.
func Dead() int { return 6 }
