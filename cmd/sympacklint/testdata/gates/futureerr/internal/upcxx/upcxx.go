package upcxx

type Future struct{ err error }

func (f Future) Err() error { return f.err }

func Start() Future { return Future{} }
