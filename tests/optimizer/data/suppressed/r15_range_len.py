def total(seq):
    out = 0
    for k in range(len(seq)):  # pepo: ignore[R15_RANGE_LEN]
        out += seq[k]
    return out
