"""ASN.1/DER substrate: tags, OIDs, string-type codecs, and a DER codec."""
