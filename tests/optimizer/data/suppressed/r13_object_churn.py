import re

hits = 0
for line in ["a", "b"]:
    pat = re.compile("a+")  # pepo: ignore[R13_OBJECT_CHURN]
    if pat.match(line):
        hits += 1
