"""Reference implementations the property suites compare the engines with."""
