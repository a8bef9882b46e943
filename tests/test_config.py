import pytest

from lluad.config import ConfigError, load_config, parse_config, parse_hostport


def test_parse_config_basics():
    text = "\n".join(
        [
            "# comment",
            "",
            "n_popular = 500",
            "host=127.0.0.1",
            "note = a = b",  # value may contain '='
        ]
    )
    cfg = parse_config(text)
    assert cfg == {"n_popular": "500", "host": "127.0.0.1", "note": "a = b"}


@pytest.mark.parametrize("bad", ["just words", "=value", "dup=1\ndup=2"])
def test_parse_config_rejects(bad):
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_load_config(tmp_path):
    path = tmp_path / "lluad.conf"
    path.write_text("quota=4\n")
    assert load_config(str(path)) == {"quota": "4"}


def test_parse_hostport():
    assert parse_hostport("10.0.0.1:53", 5853) == ("10.0.0.1", 53)
    assert parse_hostport("10.0.0.1", 5853) == ("10.0.0.1", 5853)
    with pytest.raises(ConfigError):
        parse_hostport("host:notaport", 53)

