"""Unicode/IDN substrate: Punycode, IDNA2008, blocks, confusables."""
